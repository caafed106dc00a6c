"""Combinatorial index formulas for orbit sets and lattice paths.

The central quantity is an even integer attached to a weighted collection
of orbits via trivialized topological data (writhe-type self-linking,
pairwise linking, and Conley-Zehnder indices of iterates). For ellipsoids
everything collapses to an explicit closed form in the two multiplicities,
and the index pairs up with the action ordering: the scan operation checks
that identity degree by degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .domains import _require_keys
from .errors import MissingCoverError, PreconditionError, ValidationError
from .paths import LatticePath, _chain_twice_area
from .rationals import (_Frozen, _chain_sum, _exact_int, _floor_chain, _fractions, _plain_ints,
                        _positive_axes, _ratio, _scaled, _shown)
from .spectra import _chain_count

SCAN_ROW_LIMIT = 100_000  # index_action_scan refuses a grid of more rows before any work


def ellipsoid_index(a: Fraction, b: Fraction, m1: int, m2: int) -> int:
    """Closed form: 2 (m1 + m2 + m1 m2 + sum floor(j a / b) + sum floor(j b / a)).

    With a / b = p / q in lowest terms the two sums are floor sums on the Euclid
    chains of (q, p) and (p, q), and those are one chain: each is the other after
    one step, so it is built once.
    """
    a, b = _positive_axes(a, b)
    p, q = _ratio(a, b)
    m1, m2 = _exact_int(m1, "m1"), _exact_int(m2, "m2")
    chain = _floor_chain(q, p)
    # (q, 0, p) leads the chain of (q, p) when p < q, and (p, 0, q) that of (p, q) when p > q;
    # at p = q = 1 the extra link adds 0
    flipped = chain[1:] if p < q else [(p, 0, q), *chain]
    # the sums over 1 <= j <= m start at j = 0 here
    return 2 * (m1 + m2 + m1 * m2 + _chain_sum(chain, m1 + 1, 0) + _chain_sum(flipped, m2 + 1, 0))


def ellipsoid_action(a: Fraction, b: Fraction, m1: int, m2: int) -> Fraction:
    m1, m2 = _exact_int(m1, "m1"), _exact_int(m2, "m2")
    a, b = _positive_axes(a, b)
    return a * m1 + b * m2


class OrbitRecord(_Frozen):
    """One orbit with its trivialized index data.

    cz_indices is a tuple of ints whose entry j - 1 is the Conley-Zehnder
    index of the j-th iterate; it holds at least multiplicity entries. The
    label must be a str. self_linking and chern are the writhe-type and
    relative first Chern numbers in the same trivialization; both must be
    ints, bools refused.
    """

    __slots__ = _fields = ("label", "chern", "self_linking", "cz_indices", "multiplicity")

    def __init__(self, label: str, chern: int, self_linking: int, cz_indices: tuple[int, ...],
                 multiplicity: int) -> None:
        if type(label) is not str:
            raise ValidationError(f"orbit labels must be strings, got {type(label).__name__} "
                                  f"{_shown(label)}")
        _plain_ints((chern, self_linking), f"orbit {_shown(label)}: chern and self_linking")
        _exact_int(multiplicity, "orbit multiplicity", least=1)
        if type(cz_indices) is not tuple:
            raise ValidationError(f"orbit {_shown(label)}: cz array must be a tuple, got "
                                  f"{type(cz_indices).__name__} {_shown(cz_indices)}")
        _plain_ints(cz_indices, f"orbit {_shown(label)}: cz array")
        if len(cz_indices) < multiplicity:
            raise MissingCoverError(f"orbit {_shown(label)} has no index data for cover "
                                    f"{len(cz_indices) + 1}")
        self._set("label", label)
        self._set("chern", chern)
        self._set("self_linking", self_linking)
        self._set("cz_indices", cz_indices)
        self._set("multiplicity", multiplicity)


class OrbitSet(_Frozen):
    """A tuple of orbits plus a symmetric linking matrix, a tuple of int tuples (diagonal ignored)."""

    __slots__ = _fields = ("orbits", "linking")

    def __init__(self, orbits: tuple[OrbitRecord, ...], linking: tuple[tuple[int, ...], ...]) -> None:
        for name, container in (("orbits", orbits), ("linking", linking)):
            if type(container) is not tuple:  # a list would leave the set unhashable
                raise ValidationError(f"{name} must be a tuple, got {type(container).__name__} "
                                      f"{_shown(container)}")
        n = len(orbits)
        labels = [o.label for o in orbits]
        if len(set(labels)) != n:
            raise ValidationError("orbit labels must be distinct")
        for row in linking:
            if type(row) is not tuple:
                raise ValidationError(f"linking rows must be tuples, got {type(row).__name__} "
                                      f"{_shown(row)}")
            _plain_ints(row, "linking entries")
        if len(linking) != n or any(len(row) != n for row in linking):
            raise ValidationError("linking matrix shape must match the orbit count")
        for i in range(n):
            for j in range(n):
                if i != j and linking[i][j] != linking[j][i]:
                    raise ValidationError("linking matrix must be symmetric")
        self._set("orbits", orbits)
        self._set("linking", linking)


def star_shaped_index(orbit_set: OrbitSet) -> int:
    """Index of an orbit set from first principles.

    Sum over orbits of (m^2 + m) chern + m^2 self_linking + the first m
    iterate indices, plus the ordered pairwise linking sum (each unordered
    pair of distinct orbits is counted twice).
    """
    total = 0
    orbits = orbit_set.orbits
    for i, o in enumerate(orbits):
        m = o.multiplicity
        total += (m * m + m) * o.chern + m * m * o.self_linking + sum(o.cz_indices[:m])
        for j2, other in enumerate(orbits):
            if j2 != i:
                total += m * other.multiplicity * orbit_set.linking[i][j2]
    return total


def ellipsoid_orbit_set(a: Fraction, b: Fraction, m1: int, m2: int) -> OrbitSet:
    """The two-generator orbit set of an ellipsoid boundary.

    Both generators have chern number 1 and self-linking -1, they link
    once, and the iterate indices are 2 floor(j a / b) + 1 for the short
    generator and 2 floor(j b / a) + 1 for the long one. With a / b = p / q
    in lowest terms, 2 (j p // q) + 1 = (2 j p // q) | 1, as floor(2 x) is
    2 floor(x) or one more, so each tuple takes one integer division per
    iterate over the multiples 2 j p of 2 p (and 2 j q of 2 q): O(m) integer
    steps and no floor sum. Multiplicity-zero generators are omitted from the set.
    """
    a, b = _positive_axes(a, b)
    if _exact_int(m1, "m1") + _exact_int(m2, "m2") == 0:
        raise ValidationError("need multiplicities m1, m2 not both zero")
    p, q = _ratio(a, b)
    orbits = tuple(
        OrbitRecord(label, 1, -1, tuple([w // v | 1 for w in range(2 * u, 2 * u * (m + 1), 2 * u)]), m)
        for label, m, u, v in (("g1", m1, p, q), ("g2", m2, q, p)) if m > 0)
    n = len(orbits)
    linking = tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n))
    return OrbitSet(orbits, linking)


def orbit_set_from_jsonable(obj: object) -> OrbitSet:
    """Parse the JSON form of an orbit set.

    Each orbit carries label, chern, self_linking, multiplicity, and an
    explicit cz array (entry j - 1 is the index of the j-th iterate);
    linking is a full symmetric matrix in orbit order. As in domain JSON, a
    missing or unknown field is refused, in the object and in each record.
    Only the structure, and that the cz array is a list, are checked here:
    OrbitRecord and OrbitSet check the label, which must be a JSON string,
    and the integers, and a cz array shorter than the multiplicity raises
    MissingCoverError.
    """
    if not isinstance(obj, dict):
        raise ValidationError("orbit JSON must be an object with 'orbits' and 'linking'")
    _require_keys(obj, {"orbits", "linking"}, "orbit JSON")
    if not isinstance(obj["orbits"], list) or not obj["orbits"]:
        raise ValidationError("'orbits' must be a nonempty list")
    orbits = []
    for item in obj["orbits"]:
        if not isinstance(item, dict):
            raise ValidationError(f"bad orbit record: {_shown(item)}")
        _require_keys(item, {"label", "chern", "self_linking", "multiplicity", "cz"}, "orbit record")
        label, cz = item["label"], item["cz"]
        if type(cz) is not list:
            raise ValidationError(f"orbit {_shown(label)}: cz array must be a list, got "
                                  f"{type(cz).__name__} {_shown(cz)}")
        orbits.append(OrbitRecord(label, item["chern"], item["self_linking"], tuple(cz),
                                  item["multiplicity"]))
    linking_raw = obj["linking"]
    if not isinstance(linking_raw, list):
        raise ValidationError("'linking' must be a matrix (list of lists)")
    linking = []
    for row in linking_raw:
        if not isinstance(row, list):
            raise ValidationError("'linking' rows must be integer lists")
        linking.append(tuple(row))
    return OrbitSet(tuple(orbits), tuple(linking))


def path_index_bounds(path: LatticePath) -> tuple[int, int]:
    """Index interval of the orbit sets represented by a path.

    Lower bound: twice the enclosed area plus both extents. Upper bound:
    lower plus the total multiplicity, which equals 2 (count - 1) with
    count the enclosed lattice points.
    """
    lower = _chain_twice_area(path.vertices()) + path.x_extent + path.y_extent
    upper = lower + path.total_multiplicity
    return lower, upper


class IndexScanRow(_Frozen):
    __slots__ = _fields = ("m1", "m2", "action", "index", "rank", "tangent_count")

    def __init__(self, m1: int, m2: int, action: Fraction, index: int, rank: int,
                 tangent_count: int) -> None:
        self._set("m1", m1)
        self._set("m2", m2)
        self._set("action", action)
        self._set("index", index)
        self._set("rank", rank)
        self._set("tangent_count", tangent_count)


class IndexScanReport(_Frozen):
    __slots__ = _fields = ("a", "b", "m_max", "rows")

    def __init__(self, a: Fraction, b: Fraction, m_max: int, rows: tuple[IndexScanRow, ...]) -> None:
        self._set("a", a)
        self._set("b", b)
        self._set("m_max", m_max)
        self._set("rows", rows)


def index_action_scan(a: Fraction, b: Fraction, m_max: int) -> IndexScanReport:
    """Check index = 2 rank on the grid [0, m_max]^2 and report the rows.

    rank counts pairs of strictly smaller action, so index = 2 rank says
    the pair sits at position rank in the sorted action list; the tangent
    count (pairs with action <= this one) must independently satisfy
    index = 2 (count - 1). Both identities need the scanned range to be
    collision free: no j a / b or j b / a may be an integer for j up to
    m_max, and all actions up to (a + b) m_max must be pairwise distinct.
    With a / b = p / q in lowest terms, the first collisions are j = q,
    j = p and the pairs (0, p), (q, 0); violations raise PreconditionError
    naming the collision. A grid of more than SCAN_ROW_LIMIT rows is then
    refused with ValidationError before any work. The index comes from
    running sums of j p // q and j q // p, O(m_max) steps for the whole
    grid, and rank and the tangent count from pair counts on the one Euclid
    chain of the scaled axes (spectra._chain_count): the identity compares
    two routes sharing no code. The row actions are made by
    rationals._fractions.
    """
    a, b = _positive_axes(a, b)
    m_max = _exact_int(m_max, "m_max")
    p, q = _ratio(a, b)
    ps, qs = _shown(p, str), _shown(q, str)
    if q <= min(p, m_max):
        raise PreconditionError(f"ratio collision: {qs} * a / b = {ps} is an integer")
    if p <= m_max:
        raise PreconditionError(f"ratio collision: {ps} * b / a = {qs} is an integer")
    if a * q <= (a + b) * m_max:
        raise PreconditionError(
            f"action collision: pairs (0, {ps}) and ({qs}, 0) share action {_shown(a * q, str)}")
    if (m_max + 1) ** 2 > SCAN_ROW_LIMIT:
        raise ValidationError(f"index scan of {_shown((m_max + 1) ** 2, str)} rows exceeds the "
                              f"limit of {SCAN_ROW_LIMIT} rows")
    an, bn, d = _scaled(a, b)
    chain = _floor_chain(bn, an)
    s1 = list(accumulate(j * p // q for j in range(m_max + 1)))
    s2 = list(accumulate(j * q // p for j in range(m_max + 1)))
    cells = [(m1, m2) for m1 in range(m_max + 1) for m2 in range(m_max + 1)]
    actions = [an * m1 + bn * m2 for m1, m2 in cells]
    rows = []
    for (m1, m2), v, action in zip(cells, actions, _fractions(actions, d)):
        idx = 2 * (m1 + m2 + m1 * m2 + s1[m1] + s2[m2])
        rank = _chain_count(chain, an, v - 1)
        tangent = _chain_count(chain, an, v)
        if idx != 2 * rank:
            raise AssertionError(f"index {idx} != 2 * rank {rank} at (m1, m2) = ({m1}, {m2})")
        if idx != 2 * (tangent - 1):
            raise AssertionError(f"index {idx} != 2 * (tangent count - 1) at ({m1}, {m2})")
        rows.append(IndexScanRow(m1, m2, action, idx, rank, tangent))
    return IndexScanReport(a, b, m_max, tuple(rows))
