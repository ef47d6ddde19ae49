"""Electrical solvers for passive crossbar arrays.

Two solvers are provided:

* :func:`solve_ideal_wires` — word/bit lines are ideal conductors, so
  each line is a single circuit node.  Lines are either *driven* (fixed
  voltage) or *floating* (zero net current); the floating-line voltages
  are found from Kirchhoff's current law.  This is the standard model
  for sneak-path analysis (Zidan et al. [80]) and is exact for the
  netlist it describes.
* :func:`solve_with_wire_resistance` — each cross-point gets its own
  row-side and column-side node, chained by per-segment wire
  resistance, with drivers attached at the line ends through a source
  resistance.  This exposes the IR-drop effects that bound realistic
  array sizes.

The wire-resistance system is assembled with vectorised NumPy index
arithmetic (no Python double loop) and solved through one of two
backends:

* ``sparse`` — :func:`scipy.sparse.linalg.splu` on the CSC form of the
  2·R·C-node conductance matrix.  SciPy is the optional ``repro[fast]``
  extra; when it is importable this backend is the default and there is
  no array-size cap (256x256 and beyond are routine).
* ``dense`` — a pure-NumPy :func:`numpy.linalg.solve` fallback, capped
  at :data:`DENSE_NODE_LIMIT` nodes so an accidental large solve cannot
  allocate a multi-gigabyte matrix.

Factorizations are memoised in a small LRU cache keyed on the array
shape, the *pattern* of driven lines, the wire/driver resistances, the
backend, and a digest of the conductance matrix.  Drive *voltages* only
enter the right-hand side, so repeated same-topology solves — the
fixed-point loop in :func:`repro.crossbar.sneak.solve_access`,
per-input :meth:`repro.analog.crossbar.AnalogCrossbar.matvec`, the
two-phase multistage readout — reuse the factorization instead of
re-factoring.  An exact digest hit returns bit-identical results to
the solve that cached the entry.

Writes change the digest, but a single-cell write is only a rank-1
change of the nodal matrix.  On a digest miss the cache therefore looks
for a *real* (freshly factored) entry of the same structure — shape,
driven lines, resistances, backend — whose conductances differ from
the new ones in at most :data:`LOW_RANK_MAX` junctions, and caches a
*derived* entry under the new digest.  It shares the base's LU and
answers ``A' = A + U·D·Uᵀ`` (one ``e_i - e_j`` column of ``U`` per
changed junction, ``D`` the conductance changes) through the Woodbury
identity ``x = y - Z·(I + D·UᵀZ)⁻¹·D·Uᵀy`` with ``y = A⁻¹b`` and
``Z = A⁻¹U``.  ``A`` is symmetric, so ``Uᵀy = Zᵀb`` and the correction
is applied to the right-hand side instead, ``x = A⁻¹(b - U·(I +
D·UᵀZ)⁻¹·D·Zᵀb)``: a read is one base solve plus a product over the
few rows of ``Z`` where ``b`` is nonzero, not a pass over all of ``Z``.
The base memoises its ``A⁻¹u`` columns per junction, so each further
write costs one single-column solve, not a factorization.
Derived entries never serve as bases, so error cannot compound along a
chain of writes; past the cap (or when the small capacitance matrix
``I + D·UᵀZ`` says the update would amplify rounding, see
:data:`_UPDATE_GROWTH_MAX`) the system is factored afresh and becomes
the next base.  Cache traffic is observable through the
``crossbar_factorization_cache_total{result=hit|update|miss}``
counter: ``miss`` counts real factorizations only, ``update`` derived
entries.

Both solvers return a :class:`CrossbarSolution` with node voltages, the
junction current matrix, and per-line terminal currents.  Terminal
currents of the wire-resistance solver are recovered by summing each
line's junction currents (the only elements through which current can
leave a line) rather than differencing adjacent node voltages across a
wire segment: the voltage drop across one segment shrinks like
``wire_resistance`` while the node voltages stay O(1), so the old
difference cancelled catastrophically and row/column totals disagreed
by ~0.4% at ``wire_resistance=1e-9``.  Junction voltage differences
stay O(1), so charge conservation now holds to solver tolerance at any
wire resistance.

Conditioning caveat: at extreme wire-to-junction conductance ratios
(``g_wire / g_junction`` around 1e13, e.g. ``wire_resistance=1e-9``
against 10 kohm junctions) the float64 *assembly* itself limits
absolute accuracy.  Rounding the diagonal to the nearest representable
double injects a spurious leak of about ``ulp(2e9) ~ 2.4e-7 S`` per
node — a few times 1e-3 relative to a 1e-4 S junction — and no solver
or iterative refinement can recover what the stamped matrix no longer
represents.  Charge conservation is unaffected (both terminal totals
sum the same junction-current matrix), but comparisons against the
ideal-wire solution should budget ~1e-3 relative error in that regime;
at ``wire_resistance >= 1e-6`` the agreement is ~1e-4 or better.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CrossbarError
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer

try:  # SciPy is optional: the `repro[fast]` extra.
    from scipy.sparse import coo_matrix as _coo_matrix
    from scipy.sparse.linalg import splu as _splu
    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised via backend="dense"
    _HAVE_SCIPY = False

#: Voltage assignment for driven lines: index -> volts.  Lines absent
#: from the mapping float.
LineDrive = Dict[int, float]

#: Node-count ceiling for the dense fallback backend (exclusive: the
#: limit itself is refused).  2 * rows * cols nodes; 16384 nodes is
#: already a 2 GB dense matrix, so the guard triggers at ``n >= limit``
#: — anything that big needs the sparse backend (install
#: ``repro[fast]``).
DENSE_NODE_LIMIT = 16384

#: Maximum number of memoised factorizations (LRU eviction beyond it).
FACTORIZATION_CACHE_SIZE = 16

#: Most junctions a derived (low-rank) cache entry may change against
#: its base factorization; beyond it the system is factored afresh.
LOW_RANK_MAX = 32

#: A derived entry amplifies the base solve's rounding by up to about
#: ``(‖C‖ + 1)·‖C⁻¹‖`` (2-norms) for its capacitance matrix
#: ``C = I + D·UᵀZ``.  Writes to a well-driven array keep it near 2;
#: past this bound — a write that brings the system close to singular,
#: e.g. one that disconnects a floating line — the system is factored
#: afresh instead.
_UPDATE_GROWTH_MAX = 10.0

_BACKENDS = ("auto", "sparse", "dense")

_REGISTRY = get_registry()
_TRACER = get_tracer()
_SOLVES = _REGISTRY.counter(
    "crossbar_solves_total", "electrical crossbar solves by solver kind")
_SOLVES_IDEAL = _SOLVES.labels(solver="ideal_wires")
_SOLVES_WIRE = _SOLVES.labels(solver="wire_resistance")
_UNKNOWNS = _REGISTRY.histogram(
    "crossbar_solver_unknowns", "linear-system unknowns per solve",
    buckets=(1, 4, 16, 64, 256, 1024, 4096, 16384))
_RESIDUAL = _REGISTRY.gauge(
    "crossbar_solver_residual_max_abs",
    "max |Ax - b| of the last solve (updated only while tracing)")
_CACHE_LOOKUPS = _REGISTRY.counter(
    "crossbar_factorization_cache_total",
    "wire-resistance factorization cache lookups by result")
_CACHE_HIT = _CACHE_LOOKUPS.labels(result="hit")
_CACHE_MISS = _CACHE_LOOKUPS.labels(result="miss")
_CACHE_UPDATE = _CACHE_LOOKUPS.labels(result="update")


def scipy_available() -> bool:
    """Whether the sparse (SciPy) backend can be used in this process."""
    return _HAVE_SCIPY


def _note_solve(counter, a, b: np.ndarray, x: np.ndarray, count: int = 1) -> None:
    """Record *count* solves; the residual check runs only under tracing.

    *a* may be a dense ndarray or a scipy sparse matrix — both support
    ``a @ x``.  A multi-RHS block (*b* of shape ``(n, k)``) counts as
    *k* solves against one factorization.
    """
    counter.inc(count)
    _UNKNOWNS.observe(len(b))
    if _TRACER.enabled:
        _RESIDUAL.set(float(np.abs(a @ x - b).max()) if len(b) else 0.0)


@dataclass
class CrossbarSolution:
    """Result of an electrical solve.

    Attributes
    ----------
    row_voltages, col_voltages:
        Per-line voltages (volts).  For the wire-resistance solver these
        are the voltages at the *junction* nodes, shape (rows, cols).
    junction_currents:
        Current through each junction, positive from row to column
        (amperes), shape (rows, cols).
    row_currents, col_currents:
        Net current injected by each row / absorbed by each column at
        its terminal (amperes).  Floating lines report their net
        junction current, which is ~0 to solver tolerance.
    converged:
        Whether the producing computation converged.  Direct linear
        solves always converge; :func:`repro.crossbar.sneak.solve_access`
        clears this flag when its nonlinear fixed-point loop runs out of
        iterations.
    """

    row_voltages: np.ndarray
    col_voltages: np.ndarray
    junction_currents: np.ndarray
    row_currents: np.ndarray
    col_currents: np.ndarray
    converged: bool = True

    def junction_voltage(self, row: int, col: int) -> float:
        """Voltage across junction (*row*, *col*), row side minus column side."""
        if self.row_voltages.ndim == 1:
            return float(self.row_voltages[row] - self.col_voltages[col])
        return float(self.row_voltages[row, col] - self.col_voltages[row, col])


def solve_ideal_wires(
    conductances: np.ndarray,
    row_drive: LineDrive,
    col_drive: LineDrive,
) -> CrossbarSolution:
    """Solve a crossbar with ideal (zero-resistance) lines.

    Parameters
    ----------
    conductances:
        Junction conductance matrix, shape (rows, cols), siemens.
    row_drive / col_drive:
        Mapping of driven line index to voltage; undriven lines float.

    Raises
    ------
    CrossbarError
        If no line is driven, an index is out of range, or a floating
        line is completely disconnected (singular system).
    """
    g = np.asarray(conductances, dtype=float)
    if g.ndim != 2:
        raise CrossbarError(f"conductance matrix must be 2-D, got shape {g.shape}")
    if (g < 0).any():
        raise CrossbarError("conductances must be non-negative")
    rows, cols = g.shape
    _check_drive(row_drive, rows, "row")
    _check_drive(col_drive, cols, "col")
    if not row_drive and not col_drive:
        raise CrossbarError("at least one line must be driven")

    floating_rows = [r for r in range(rows) if r not in row_drive]
    floating_cols = [c for c in range(cols) if c not in col_drive]
    n_unknown = len(floating_rows) + len(floating_cols)

    v_row = np.zeros(rows)
    v_col = np.zeros(cols)
    for r, v in row_drive.items():
        v_row[r] = v
    for c, v in col_drive.items():
        v_col[c] = v

    if n_unknown:
        # Unknown vector: [floating row voltages..., floating col voltages...]
        a = np.zeros((n_unknown, n_unknown))
        b = np.zeros(n_unknown)
        row_pos = {r: i for i, r in enumerate(floating_rows)}
        col_pos = {c: len(floating_rows) + i for i, c in enumerate(floating_cols)}

        for r in floating_rows:
            i = row_pos[r]
            a[i, i] = g[r, :].sum()
            for c in range(cols):
                if c in col_pos:
                    a[i, col_pos[c]] -= g[r, c]
                else:
                    b[i] += g[r, c] * v_col[c]
        for c in floating_cols:
            i = col_pos[c]
            a[i, i] = g[:, c].sum()
            for r in range(rows):
                if r in row_pos:
                    a[i, row_pos[r]] -= g[r, c]
                else:
                    b[i] += g[r, c] * v_row[r]

        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise CrossbarError(
                "singular crossbar system (a floating line has no conductive "
                "path to any driven line)"
            ) from exc
        _note_solve(_SOLVES_IDEAL, a, b, x)
        for r in floating_rows:
            v_row[r] = x[row_pos[r]]
        for c in floating_cols:
            v_col[c] = x[col_pos[c]]
    else:
        # Fully driven: no linear system, but still one accounted solve.
        _SOLVES_IDEAL.inc()
        _UNKNOWNS.observe(0)

    currents = g * (v_row[:, None] - v_col[None, :])
    return CrossbarSolution(
        row_voltages=v_row,
        col_voltages=v_col,
        junction_currents=currents,
        row_currents=currents.sum(axis=1),
        col_currents=currents.sum(axis=0),
    )


# ---------------------------------------------------------------------------
# Wire-resistance solver: sparse/dense assembly and factorization cache
# ---------------------------------------------------------------------------


@dataclass
class _Factorization:
    """One prepared same-topology solve: reduced system + solve closure.

    ``solve`` maps a reduced right-hand side to the unknown-node
    voltages; ``a_up`` couples the unknowns to the pinned driver nodes
    (None when drivers are resistive, i.e. stamped into the matrix);
    ``position`` maps every node to its reduced index (-1 = pinned).
    A *real* entry keeps the conductances it factored (``g``) and
    memoises ``A⁻¹u`` per junction cell (``columns``) for the derived
    entries built on it; a derived entry has ``g=None`` and is never
    used as a base.
    """

    backend: str
    n_nodes: int
    unknown: np.ndarray
    pinned: np.ndarray
    position: np.ndarray
    driver_nodes: np.ndarray
    g_drv: Optional[float]
    a_red: object
    a_up: object
    solve: Callable[[np.ndarray], np.ndarray]
    g: Optional[np.ndarray] = None
    columns: Dict[int, np.ndarray] = field(default_factory=dict)


_CACHE_LOCK = threading.Lock()
_FACTOR_CACHE: "OrderedDict[Tuple, _Factorization]" = OrderedDict()


def clear_factorization_cache() -> None:
    """Drop every memoised wire-resistance factorization."""
    with _CACHE_LOCK:
        _FACTOR_CACHE.clear()


def factorization_cache_len() -> int:
    """Number of factorizations currently memoised."""
    with _CACHE_LOCK:
        return len(_FACTOR_CACHE)


def _resolve_backend(backend: str) -> str:
    if backend not in _BACKENDS:
        raise CrossbarError(
            f"unknown solver backend {backend!r}; choose one of {_BACKENDS}"
        )
    if backend == "auto":
        return "sparse" if _HAVE_SCIPY else "dense"
    if backend == "sparse" and not _HAVE_SCIPY:
        raise CrossbarError(
            "the sparse backend needs scipy — install the repro[fast] extra"
        )
    return backend


def _assemble_full(
    g: np.ndarray,
    g_wire: float,
    g_drv: Optional[float],
    driver_nodes: np.ndarray,
    backend: str,
):
    """Full symmetric 2·R·C-node conductance matrix, vectorised.

    Node numbering: row-side node (r, c) is ``r*cols + c``; column-side
    node (r, c) is ``rows*cols + r*cols + c``.
    """
    rows, cols = g.shape
    rc = rows * cols
    n = 2 * rc
    cell = np.arange(rc)

    # Two-terminal elements as (i, j, conductance) triples.
    ei = [cell]                      # junction row-side endpoints
    ej = [cell + rc]                 # junction col-side endpoints
    ev = [g.ravel()]
    if cols > 1:                     # row-line segments (r,c)-(r,c+1)
        i = cell[cell % cols != cols - 1]
        ei.append(i)
        ej.append(i + 1)
        ev.append(np.full(i.size, g_wire))
    if rows > 1:                     # column-line segments (r,c)-(r+1,c)
        i = rc + np.arange(rc - cols)
        ei.append(i)
        ej.append(i + cols)
        ev.append(np.full(rc - cols, g_wire))
    ei = np.concatenate(ei)
    ej = np.concatenate(ej)
    ev = np.concatenate(ev)

    # Symmetric stamp of every element: +v on both diagonals, -v on the
    # two off-diagonal entries.  Duplicate coordinates accumulate.
    ri = np.concatenate([ei, ej, ei, ej])
    ci = np.concatenate([ei, ej, ej, ei])
    vv = np.concatenate([ev, ev, -ev, -ev])
    if g_drv is not None and driver_nodes.size:
        ri = np.concatenate([ri, driver_nodes])
        ci = np.concatenate([ci, driver_nodes])
        vv = np.concatenate([vv, np.full(driver_nodes.size, g_drv)])

    if backend == "sparse":
        return _coo_matrix((vv, (ri, ci)), shape=(n, n)).tocsr()
    a = np.zeros((n, n))
    np.add.at(a, (ri, ci), vv)
    return a


@lru_cache(maxsize=8)
def _grid_nd_order(rows: int, cols: int) -> np.ndarray:
    """Nested-dissection node order for the 2·R·C crossbar grid graph.

    The wire-resistance node graph is a quasi-2D grid: each cross-point
    carries a row-side and a column-side node (joined by its junction),
    row wires chain along ``c`` and column wires along ``r``.  Ordering
    the *cells* by recursive bisection (separator line emitted last,
    both nodes of a cell kept adjacent) and handing SuperLU the
    pre-permuted matrix with ``permc_spec="NATURAL"`` roughly halves
    both factor time and LU fill versus COLAMD on a 256x256 array —
    COLAMD cannot see the grid geometry in the sparsity pattern alone.
    """
    rc = rows * cols
    order: List[int] = []

    def emit(r: int, c: int) -> None:
        i = r * cols + c
        order.append(i)
        order.append(rc + i)

    def rec(r0: int, r1: int, c0: int, c1: int) -> None:
        h, w = r1 - r0, c1 - c0
        if h <= 0 or w <= 0:
            return
        if h * w <= 4:
            for r in range(r0, r1):
                for c in range(c0, c1):
                    emit(r, c)
            return
        if h >= w:
            mid = (r0 + r1) // 2
            rec(r0, mid, c0, c1)
            rec(mid + 1, r1, c0, c1)
            for c in range(c0, c1):
                emit(mid, c)
        else:
            mid = (c0 + c1) // 2
            rec(r0, r1, c0, mid)
            rec(r0, r1, mid + 1, c1)
            for r in range(r0, r1):
                emit(r, mid)

    rec(0, rows, 0, cols)
    return np.array(order, dtype=np.intp)


def _make_solve(
    a_red, backend: str, perm: Optional[np.ndarray] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the reduced system once; return a solve closure.

    The closure accepts a 1-D right-hand side *or* an ``(n, k)``
    multi-column block — sweeps of same-structure drive patterns go
    through the factorization as one multi-RHS solve.  *perm* (sparse
    backend) pre-permutes the system into the grid nested-dissection
    order so SuperLU factors it with ``permc_spec="NATURAL"``.
    """
    n = a_red.shape[0]
    if n == 0:
        return lambda b: np.empty((0,) + np.shape(b)[1:])
    if backend == "sparse":
        try:
            if perm is not None:
                inverse = np.empty_like(perm)
                inverse[perm] = np.arange(perm.size)
                lu = _splu(
                    a_red[perm][:, perm].tocsc(),
                    permc_spec="NATURAL",
                    options=dict(SymmetricMode=True, DiagPivotThresh=0.01),
                )

                def _solve_nd(b: np.ndarray) -> np.ndarray:
                    return lu.solve(np.asarray(b)[perm])[inverse]

                return _solve_nd
            lu = _splu(a_red.tocsc())
        except RuntimeError as exc:
            raise CrossbarError("singular crossbar system") from exc
        return lu.solve

    def _solve_dense(b: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(a_red, b)
        except np.linalg.LinAlgError as exc:
            raise CrossbarError("singular crossbar system") from exc

    return _solve_dense


def _build_factorization(
    g: np.ndarray,
    row_idx: Tuple[int, ...],
    col_idx: Tuple[int, ...],
    wire_resistance: float,
    driver_resistance: float,
    backend: str,
) -> _Factorization:
    rows, cols = g.shape
    rc = rows * cols
    n = 2 * rc
    g_wire = 1.0 / wire_resistance
    g_drv = 1.0 / driver_resistance if driver_resistance > 0 else None
    # Drivers attach at the row line's left end and the column line's
    # top end; canonical order = sorted rows then sorted columns (which
    # is ascending in node id too).
    driver_nodes = np.array(
        [r * cols for r in row_idx] + [rc + c for c in col_idx], dtype=int
    )

    a_full = _assemble_full(g, g_wire, g_drv, driver_nodes, backend)
    if g_drv is None:
        pinned = driver_nodes
        mask = np.ones(n, dtype=bool)
        mask[pinned] = False
        unknown = np.nonzero(mask)[0]
        if backend == "sparse":
            a_red = a_full[unknown][:, unknown]
            a_up = a_full[unknown][:, pinned]
        else:
            a_red = a_full[np.ix_(unknown, unknown)]
            a_up = a_full[np.ix_(unknown, pinned)]
    else:
        pinned = np.empty(0, dtype=int)
        unknown = np.arange(n)
        a_red = a_full
        a_up = None
    position = np.full(n, -1, dtype=np.intp)
    position[unknown] = np.arange(unknown.size, dtype=np.intp)
    perm = None
    if backend == "sparse":
        # Map the grid nested-dissection node order onto the reduced
        # (unknown-only) index space, preserving ND order.
        nd_positions = position[_grid_nd_order(rows, cols)]
        perm = nd_positions[nd_positions >= 0]
    return _Factorization(
        backend=backend,
        n_nodes=n,
        unknown=unknown,
        pinned=pinned,
        position=position,
        driver_nodes=driver_nodes,
        g_drv=g_drv,
        a_red=a_red,
        a_up=a_up,
        solve=_make_solve(a_red, backend, perm),
        g=g.copy(),
    )


def _ports(fact: _Factorization, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced positions of the row-side and column-side node of each
    junction in *cells* (flat ``r*cols + c`` indices); -1 = pinned."""
    return fact.position[cells], fact.position[fact.n_nodes // 2 + cells]


def _u_columns(pi: np.ndarray, pj: np.ndarray, n_unknown: int) -> np.ndarray:
    """Dense ``(n_unknown, k)`` block whose column *k* is ``e_i - e_j``
    over junction *k*'s two nodes, restricted to the unknowns."""
    u = np.zeros((n_unknown, pi.size))
    for ports, sign in ((pi, 1.0), (pj, -1.0)):
        free = np.flatnonzero(ports >= 0)
        u[ports[free], free] = sign
    return u


def _u_dot(x: np.ndarray, pi: np.ndarray, pj: np.ndarray) -> np.ndarray:
    """``Uᵀx`` for the junction ports *pi*, *pj*: per junction, the row
    of *x* at its row-side node minus the row at its column-side node;
    a port outside *x*'s index space (-1) adds nothing."""
    out = np.zeros((pi.size,) + x.shape[1:])
    for ports, sign in ((pi, 1.0), (pj, -1.0)):
        free = ports >= 0
        out[free] += sign * x[ports[free]]
    return out


def _u_add(out: np.ndarray, t: np.ndarray, pi: np.ndarray, pj: np.ndarray) -> None:
    """``out += U·t`` in place for the junction ports *pi*, *pj* (the
    transpose of :func:`_u_dot`); a port of -1 receives nothing."""
    for ports, sign in ((pi, 1.0), (pj, -1.0)):
        free = ports >= 0
        out[ports[free]] += sign * t[free]


class _Stamped:
    """``base + P·diag(d)·Qᵀ``, applied lazily (only ``@`` is needed).

    *rows* and *cols* are the ``(pi, pj)`` ports of the same junctions in
    the matrix's row and column index spaces, so ``P`` and ``Q`` hold
    their ``e_i - e_j`` columns.  A derived cache entry carries its
    post-write ``a_red`` and ``a_up`` this way without copying the base
    matrices.
    """

    def __init__(self, base, rows: Tuple[np.ndarray, np.ndarray],
                 cols: Tuple[np.ndarray, np.ndarray], d: np.ndarray) -> None:
        self.base = base
        self.rows = rows
        self.cols = cols
        self.d = d

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = self.base @ x
        d = self.d.reshape((-1,) + (1,) * (x.ndim - 1))
        _u_add(out, d * _u_dot(x, *self.cols), *self.rows)
        return out


def _base_columns(
    base: _Factorization, cells: np.ndarray, pi: np.ndarray, pj: np.ndarray
) -> np.ndarray:
    """``Z = A⁻¹U`` for *cells* from *base*'s memo; the missing columns
    go through the factorization as one multi-RHS block."""
    with _CACHE_LOCK:
        memo = [base.columns.get(int(cell)) for cell in cells]
    missing = [k for k, column in enumerate(memo) if column is None]
    if missing:
        solved = base.solve(
            _u_columns(pi[missing], pj[missing], base.unknown.size))
        with _CACHE_LOCK:
            for n, k in enumerate(missing):
                memo[k] = base.columns.setdefault(int(cells[k]), solved[:, n])
            if len(base.columns) > 2 * LOW_RANK_MAX:
                # Bound the memo: keep only the columns this update uses.
                base.columns.clear()
                base.columns.update(zip(cells.tolist(), memo))
    return np.column_stack(memo)


def _derive(
    base: _Factorization, g: np.ndarray, cells: np.ndarray
) -> Optional[_Factorization]:
    """A derived entry for *g*, which differs from *base* in *cells*;
    None when the low-rank update is unsafe (factor afresh instead)."""
    d = g.ravel()[cells] - base.g.ravel()[cells]
    pi, pj = _ports(base, cells)
    # A junction with both nodes pinned only re-routes current through
    # the ideal sources: no reduced matrix sees it.
    free = (pi >= 0) | (pj >= 0)
    cells, d, pi, pj = cells[free], d[free], pi[free], pj[free]
    if not cells.size:
        return replace(base, g=None, columns={})
    try:
        z = _base_columns(base, cells, pi, pj)
    except CrossbarError:
        return None  # a singular base (the dense backend solves lazily)
    if not np.isfinite(z).all():
        return None
    capacitance = np.eye(cells.size) + d[:, None] * _u_dot(z, pi, pj)
    sigma = np.linalg.svd(capacitance, compute_uv=False)
    if sigma[0] + 1.0 > _UPDATE_GROWTH_MAX * sigma[-1]:
        return None

    gain = np.linalg.solve(capacitance, np.diag(d))  # (I + D·UᵀZ)⁻¹·D

    def solve(b: np.ndarray) -> np.ndarray:
        # A is symmetric, so Uᵀ·A⁻¹b = Zᵀb and the correction moves into
        # the right-hand side, x = A⁻¹(b - U·gain·Zᵀb).  Only Z's rows
        # where b is nonzero are read (a drive pattern touches the few
        # nodes next to the drivers); a row's summed magnitudes vanish
        # only when the whole row is zero, and that product is much
        # cheaper than any(axis=1).
        magnitude = np.abs(np.reshape(b, (len(b), -1)))
        support = np.flatnonzero(magnitude @ np.ones(magnitude.shape[1]))
        b = np.array(b, dtype=float)
        _u_add(b, -(gain @ (z[support].T @ b[support])), pi, pj)
        return base.solve(b)

    a_up = base.a_up
    if a_up is not None and ((pi < 0) | (pj < 0)).any():
        # Pinned drivers: a junction with one pinned node also changes
        # the coupling block, at the pinned node's column (a write away
        # from the driven line ends leaves it as it is).
        q = tuple(np.where(p < 0, np.searchsorted(base.pinned, nodes), -1)
                  for p, nodes in ((pi, cells), (pj, base.n_nodes // 2 + cells)))
        a_up = _Stamped(a_up, (pi, pj), q, d)
    return replace(
        base, a_red=_Stamped(base.a_red, (pi, pj), (pi, pj), d), a_up=a_up,
        solve=solve, g=None, columns={},
    )


def _get_factorization(
    g: np.ndarray,
    row_idx: Tuple[int, ...],
    col_idx: Tuple[int, ...],
    wire_resistance: float,
    driver_resistance: float,
    backend: str,
) -> _Factorization:
    # The conductance digest is recomputed at *every* lookup (not
    # stored at insert time), so mutating `g` in place between solves
    # can never resurrect a stale factorization: the changed bytes hash
    # to a different key and force a rebuild (or a low-rank update of a
    # base whose own copy of the conductances is compared cell by cell).
    digest = hashlib.blake2b(
        np.ascontiguousarray(g).tobytes(), digest_size=16
    ).digest()
    structure = (
        g.shape, row_idx, col_idx,
        float(wire_resistance), float(driver_resistance), backend,
    )
    key = structure + (digest,)
    with _CACHE_LOCK:
        fact = _FACTOR_CACHE.get(key)
        if fact is not None:
            _FACTOR_CACHE.move_to_end(key)
            _CACHE_HIT.inc()
            return fact
        bases = [(k, f) for k, f in _FACTOR_CACHE.items()
                 if f.g is not None and k[:-1] == structure]
    # Nearest real factorization of the same structure, by changed cells.
    base_key, base, cells = None, None, None
    flat = g.ravel()
    for k, candidate in bases:
        changed = np.flatnonzero(candidate.g.ravel() != flat)
        if changed.size <= LOW_RANK_MAX and (
                cells is None or changed.size < cells.size):
            base_key, base, cells = k, candidate, changed
    fact = _derive(base, g, cells) if base is not None else None
    if fact is None:
        _CACHE_MISS.inc()
        fact = _build_factorization(
            g, row_idx, col_idx, wire_resistance, driver_resistance, backend
        )
    else:
        _CACHE_UPDATE.inc()
    with _CACHE_LOCK:
        if fact.g is None and base_key in _FACTOR_CACHE:
            # Keep a base that still serves updates from aging out.
            _FACTOR_CACHE.move_to_end(base_key)
        _FACTOR_CACHE[key] = fact
        while len(_FACTOR_CACHE) > FACTORIZATION_CACHE_SIZE:
            _FACTOR_CACHE.popitem(last=False)
    return fact


def _validate_wire_problem(
    conductances: np.ndarray,
    wire_resistance: float,
    driver_resistance: float,
    backend: str,
) -> Tuple[np.ndarray, str]:
    """Shared validation for the wire-resistance entry points."""
    g = np.asarray(conductances, dtype=float)
    if g.ndim != 2:
        raise CrossbarError(f"conductance matrix must be 2-D, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise CrossbarError("conductances must be finite")
    if (g < 0).any():
        raise CrossbarError("conductances must be non-negative")
    rows, cols = g.shape
    if wire_resistance <= 0:
        raise CrossbarError(f"wire_resistance must be positive, got {wire_resistance}")
    if driver_resistance < 0:
        raise CrossbarError("driver_resistance cannot be negative")
    backend = _resolve_backend(backend)
    n = 2 * rows * cols
    if backend == "dense" and n >= DENSE_NODE_LIMIT:
        raise CrossbarError(
            f"{rows}x{cols} ({n} nodes) is too large for the dense "
            f"wire-resistance fallback (limit {DENSE_NODE_LIMIT} nodes); "
            "install scipy (the repro[fast] extra) for the sparse backend"
        )
    return g, backend


def _solve_node_voltages(
    fact: _Factorization,
    drive_volts: np.ndarray,
    extra: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Node voltages for a ``(n_drivers, k)`` block of drive patterns.

    All *k* patterns share *fact*'s driven-line structure; only the
    right-hand side differs per pattern, so the whole block goes through
    the factorization as one multi-column solve.  *extra* — reduced
    right-hand-side columns such as rank-1 ``u`` vectors — rides in the
    same block.  Returns the ``(n, k)`` node voltages and the solved
    *extra* columns (``(n_unknown, 0)`` without them).
    """
    k = drive_volts.shape[1]
    n = fact.n_nodes
    if fact.g_drv is None:
        # Pinned drivers: solve the un-pinned KCL rows against the
        # boundary coupling block.
        if fact.unknown.size:
            b_red = -(fact.a_up @ drive_volts)
        else:
            b_red = np.empty((0, k))
    else:
        b_red = np.zeros((n, k))
        b_red[fact.driver_nodes] = fact.g_drv * drive_volts
    block = b_red if extra is None else np.hstack([b_red, extra])
    solved = fact.solve(block) if fact.unknown.size else block
    x_u = solved[:, :k]
    if fact.g_drv is None:
        x = np.empty((n, k))
        x[fact.pinned] = drive_volts
        x[fact.unknown] = x_u
    else:
        x = x_u
    if not np.isfinite(solved).all():
        raise CrossbarError("singular crossbar system")
    _note_solve(_SOLVES_WIRE, fact.a_red, b_red, x_u, count=k)
    return x, solved[:, k:]


def _wire_solution(g: np.ndarray, x: np.ndarray) -> CrossbarSolution:
    """Package one node-voltage vector as a :class:`CrossbarSolution`."""
    rows, cols = g.shape
    rc = rows * cols
    v_row = x[:rc].reshape(rows, cols)
    v_col = x[rc:].reshape(rows, cols)
    currents = g * (v_row - v_col)
    # Terminal currents: every path out of a line goes through its
    # junctions, so the line's junction-current sum *is* its terminal
    # current — numerically stable at any wire resistance (junction
    # voltage differences stay O(1)), and row/column totals conserve
    # charge by construction.  Floating lines sum to ~0.
    return CrossbarSolution(
        row_voltages=v_row,
        col_voltages=v_col,
        junction_currents=currents,
        row_currents=currents.sum(axis=1),
        col_currents=currents.sum(axis=0),
    )


def solve_with_wire_resistance(
    conductances: np.ndarray,
    row_drive: LineDrive,
    col_drive: LineDrive,
    wire_resistance: float = 1.0,
    driver_resistance: float = 0.0,
    backend: str = "auto",
) -> CrossbarSolution:
    """Solve a crossbar including line (IR-drop) resistance.

    Each row *r* is a chain of nodes ``(r, 0) .. (r, cols-1)`` joined by
    *wire_resistance* ohms per segment, driven (if ``r in row_drive``)
    at its left end through *driver_resistance*; columns mirror this,
    driven at the top end.  Undriven lines float.

    Parameters
    ----------
    backend:
        ``"auto"`` (default) uses the sparse SciPy path when available
        and falls back to dense NumPy; ``"sparse"`` / ``"dense"`` force
        a backend.  The dense fallback refuses systems of
        :data:`DENSE_NODE_LIMIT` nodes or more; the sparse backend has
        no cap.

    Repeated solves with the same conductances, driven-line pattern, and
    resistances reuse a cached factorization (only the right-hand side
    is rebuilt), which is what makes per-input analog VMM and the
    nonlinear fixed-point read loops cheap.  Batches of drive patterns
    go through :func:`solve_many_with_wire_resistance`, and single-cell
    conductance perturbations through :func:`solve_junction_variants`,
    both reusing one factorization.
    """
    g, backend = _validate_wire_problem(
        conductances, wire_resistance, driver_resistance, backend
    )
    rows, cols = g.shape
    _check_drive(row_drive, rows, "row")
    _check_drive(col_drive, cols, "col")
    if not row_drive and not col_drive:
        raise CrossbarError("at least one line must be driven")

    row_idx = tuple(sorted(row_drive))
    col_idx = tuple(sorted(col_drive))
    fact = _get_factorization(
        g, row_idx, col_idx, wire_resistance, driver_resistance, backend
    )
    drive_volts = np.array(
        [row_drive[r] for r in row_idx] + [col_drive[c] for c in col_idx]
    )
    x, _ = _solve_node_voltages(fact, drive_volts[:, None])
    return _wire_solution(g, x[:, 0])


def solve_many_with_wire_resistance(
    conductances: np.ndarray,
    drives: Sequence[Tuple[LineDrive, LineDrive]],
    wire_resistance: float = 1.0,
    driver_resistance: float = 0.0,
    backend: str = "auto",
) -> List[CrossbarSolution]:
    """Solve a batch of drive patterns against one conductance matrix.

    *drives* is a sequence of ``(row_drive, col_drive)`` pairs.  The
    batch is grouped by driven-line *structure* (which lines are driven
    — voltages only enter the right-hand side): each group shares one
    cached factorization and is solved as a single multi-column RHS
    block.  A sweep of k same-structure patterns therefore costs one
    factorization plus one multi-RHS triangular solve instead of k full
    solves — the Fig. 3 wire-resistance sweep and the analog batched
    matvec path.

    Solutions come back in input order.
    """
    g, backend = _validate_wire_problem(
        conductances, wire_resistance, driver_resistance, backend
    )
    rows, cols = g.shape
    if not drives:
        return []
    groups: "OrderedDict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[int]]" = (
        OrderedDict()
    )
    for index, (row_drive, col_drive) in enumerate(drives):
        try:
            _check_drive(row_drive, rows, "row")
            _check_drive(col_drive, cols, "col")
        except CrossbarError as exc:
            raise CrossbarError(f"drive pattern {index}: {exc}") from None
        if not row_drive and not col_drive:
            raise CrossbarError(
                f"drive pattern {index}: at least one line must be driven"
            )
        key = (tuple(sorted(row_drive)), tuple(sorted(col_drive)))
        groups.setdefault(key, []).append(index)

    solutions: List[Optional[CrossbarSolution]] = [None] * len(drives)
    for (row_idx, col_idx), members in groups.items():
        fact = _get_factorization(
            g, row_idx, col_idx, wire_resistance, driver_resistance, backend
        )
        drive_volts = np.empty((len(row_idx) + len(col_idx), len(members)))
        for column, index in enumerate(members):
            row_drive, col_drive = drives[index]
            drive_volts[:, column] = (
                [row_drive[r] for r in row_idx]
                + [col_drive[c] for c in col_idx]
            )
        x, _ = _solve_node_voltages(fact, drive_volts)
        for column, index in enumerate(members):
            solutions[index] = _wire_solution(g, x[:, column])
    return [s for s in solutions if s is not None]


def solve_junction_variants(
    conductances: np.ndarray,
    row_drive: LineDrive,
    col_drive: LineDrive,
    variants: Sequence[Tuple[int, int, float]],
    wire_resistance: float = 1.0,
    driver_resistance: float = 0.0,
    backend: str = "auto",
) -> Tuple[CrossbarSolution, List[CrossbarSolution]]:
    """Solve a base array plus single-junction conductance variants.

    Each variant ``(row, col, g_new)`` replaces one junction's
    conductance.  A single-element change is a rank-1 update of the
    nodal matrix (``A + dg·u·uᵀ`` with ``u = e_i - e_j`` over the
    junction's two nodes), so every variant is answered from the *base*
    factorization via the Sherman–Morrison identity instead of a fresh
    factor: the read-margin pair (selected cell storing 1 vs 0) and
    single-cell disturb sweeps cost one factorization total.  The
    auxiliary ``A⁻¹u`` solves for all variants go through the
    factorization together with the base right-hand side, as one
    multi-RHS block.

    Returns ``(base_solution, [variant_solutions...])`` in input order.
    Falls back to a full solve for any variant whose Sherman–Morrison
    denominator degenerates (a variant that disconnects its junction
    exactly).
    """
    g, backend = _validate_wire_problem(
        conductances, wire_resistance, driver_resistance, backend
    )
    rows, cols = g.shape
    _check_drive(row_drive, rows, "row")
    _check_drive(col_drive, cols, "col")
    if not row_drive and not col_drive:
        raise CrossbarError("at least one line must be driven")
    cells = np.empty(len(variants), dtype=np.intp)
    deltas = np.empty(len(variants))
    for k, (row, col, g_new) in enumerate(variants):
        if not (0 <= row < rows and 0 <= col < cols):
            raise CrossbarError(
                f"variant junction ({row}, {col}) outside {rows}x{cols}"
            )
        if not math.isfinite(g_new):
            raise CrossbarError("conductances must be finite")
        if g_new < 0:
            raise CrossbarError("conductances must be non-negative")
        cells[k] = row * cols + col
        deltas[k] = float(g_new) - g[row, col]

    row_idx = tuple(sorted(row_drive))
    col_idx = tuple(sorted(col_drive))
    fact = _get_factorization(
        g, row_idx, col_idx, wire_resistance, driver_resistance, backend
    )
    drive_volts = np.array(
        [row_drive[r] for r in row_idx] + [col_drive[c] for c in col_idx]
    )
    # A variant moves no node voltage when it changes nothing or when
    # both its junction nodes are pinned by drivers (the change only
    # re-routes current through the ideal sources).
    pi, pj = _ports(fact, cells)
    active = np.flatnonzero((deltas != 0.0) & ((pi >= 0) | (pj >= 0)))
    pi, pj, d = pi[active], pj[active], deltas[active]
    # The base right-hand side and every active variant's u column go
    # through the factorization as one multi-RHS block.
    x, z = _solve_node_voltages(
        fact, drive_volts[:, None],
        _u_columns(pi, pj, fact.unknown.size) if active.size else None)
    x_base = x[:, 0]
    base = _wire_solution(g, x_base)
    y0 = x_base[fact.unknown]
    slot = dict(zip(active.tolist(), range(active.size)))
    if active.size:
        # Sherman–Morrison, all variants at once: x_u = y0 - shift·z.  A
        # pinned endpoint also moves the right-hand side by
        # -d·(u_p·x_p)·u_u.
        i_nodes = cells[active]
        s = (np.where(pi < 0, x_base[i_nodes], 0.0)
             - np.where(pj < 0, x_base[i_nodes + rows * cols], 0.0))
        columns = np.arange(active.size)
        uz = (np.where(pi >= 0, z[pi, columns], 0.0)
              - np.where(pj >= 0, z[pj, columns], 0.0))
        denominator = 1.0 + d * uz
        degenerate = np.abs(denominator) < 1e-300
        shift = d * s + d * (_u_dot(y0, pi, pj) - d * s * uz) / np.where(
            degenerate, 1.0, denominator)

    results: List[CrossbarSolution] = []
    for k, (row, col, g_new) in enumerate(variants):
        g_var = g.copy()
        g_var[row, col] = float(g_new)
        m = slot.get(k)
        if m is None:
            results.append(_wire_solution(g_var, x_base))
        elif degenerate[m]:
            # The variant disconnects its junction exactly: solve it.
            results.append(solve_with_wire_resistance(
                g_var, row_drive, col_drive,
                wire_resistance=wire_resistance,
                driver_resistance=driver_resistance,
                backend=backend,
            ))
        else:
            x = x_base.copy()
            x[fact.unknown] = y0 - shift[m] * z[:, m]
            if not np.isfinite(x).all():
                raise CrossbarError("singular crossbar system")
            results.append(_wire_solution(g_var, x))
    return base, results


def _check_drive(drive: LineDrive, count: int, kind: str) -> None:
    for index in drive:
        if not 0 <= index < count:
            raise CrossbarError(f"{kind} index {index} outside 0..{count - 1}")
