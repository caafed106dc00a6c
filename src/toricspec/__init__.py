"""Exact spectral invariants of four-dimensional toric-type domains.

Capacities of ellipsoids, balls, convex polygonal profiles, and disjoint
unions, all in exact rational arithmetic with verifiable witnesses, plus
the combinatorial orbit-set index, minimum spectral gaps, the ellipsoid
closing bound, and growth diagnostics.

`import toricspec` loads no submodule: a public name imports the submodule
that defines it on first use (PEP 562), and submodules resolve as attributes.
"""

__version__ = "0.1.0"

# every public name, once, under the submodule that defines it
_EXPORTS = {
    "domains": """Ball DisjointUnion Domain Ellipsoid ToricProfile contact_volume
        domain_from_jsonable load_domain norm_floor omega_length profile_area
        triangle_profile validate_profile""",
    "echindex": """IndexScanReport IndexScanRow OrbitRecord OrbitSet ellipsoid_action
        ellipsoid_index ellipsoid_orbit_set index_action_scan orbit_set_from_jsonable
        path_index_bounds star_shaped_index""",
    "errors": """ConsistencyError MissingCoverError PreconditionError ToricSpecError
        UnavailableError ValidationError""",
    "gaps": """Approximant GapReport best_approx_above best_approx_below
        close_gap_consistency ellipsoid_close gap_asymptotics spectral_gap""",
    "paths": "LatticePath enumerate_paths lattice_count_direct lattice_count_pick",
    "rationals": "approx_string parse_rat to_string",
    "spectra": """BallSpectrum EllipsoidSpectrum Spectrum ToricCapacityResult ToricSpectrum
        UnionSpectrum ball_capacity count_action_pairs nk_sequence nk_via_lattice
        spectrum_for toric_capacity_detail union_capacity weyl_report""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "io"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    # __import__ rather than importlib.import_module, so -X importtime lists the module;
    # a nonempty fromlist makes it return the submodule, not the package
    if name in _SUBMODULES:
        return __import__(f"{__name__}.{name}", fromlist=["*"])  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
