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
  2·R·C-node conductance matrix, ordered by SuperLU's own symmetric
  minimum-degree ordering.  SciPy is the optional ``repro[fast]``
  extra, imported on the first factorization that needs it; when it is
  importable this backend is the default and there is no array-size cap
  (256x256 and beyond are routine).
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
the solve that cached the entry.  The public entry points check and
digest the caller's array on every call, so an array mutated in place
between solves never resurrects a stale entry.  Those a board reads
through then run private cores that :class:`repro.board.IdealSimBoard`
calls directly: it digests once per written state and skips the
conductance scans its writes made.

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

The write path's contract is one sparse solve per cached structure per
write.  The base memoises, per junction, ``z = A⁻¹u`` together with the
projections every later derived entry needs (its row of ``ZᵀB`` and its
column-line functional, see :class:`_Columns`), so a write to a new
cell costs one single-column solve; the capacitance matrix and the
transfer-matrix move are then k-sized work on memoised rows, and the
port-response move one ``Z·M`` product, with no n-length gather or
copy of ``Z``.
Derived entries never serve as bases, so error cannot compound along a
chain of writes; past the cap (or when the small capacitance matrix
``I + D·UᵀZ`` says the update would amplify rounding, see
:data:`_UPDATE_GROWTH_MAX`) the system is factored afresh and becomes
the next base.  That fresh base inherits the served/answered counts of
the bases within ``2·LOW_RANK_MAX`` junctions of it, so a family that
had a transfer matrix or port response builds it again at its first
read instead of answering cold until the counts catch up; a
reprogrammed array, farther from every base, starts cold.  Cache
traffic is observable through the
``crossbar_factorization_cache_total{result=hit|update|miss}``
counter: ``miss`` counts real factorizations only, ``update`` derived
entries.

Terminal currents are linear in the drive voltages, so with pinned
drivers one cache entry's column currents are ``c = T·V``: the
*transfer matrix* ``T`` has one row per column line and one column per
driver.  Writing the column-current functional (each line's junction
sum) as ``L = [L_u, L_p]`` over unknown and pinned nodes, ``T = Wᵀ·B +
L_p`` with ``B = -a_up`` and ``W = A⁻¹·L_uᵀ`` from the adjoint (``A`` is
symmetric), one right-hand side per column line.
:func:`column_currents_with_wire_resistance` — the board's
``column_currents`` verbs — counts the columns it answers per
*family* (a real entry plus every derived entry built on it) and builds
the real entry's ``T`` once that count reaches the number of column
lines, the adjoint build's break-even, so a one-off read never pays
for it.  A derived entry moves its base's ``T`` through the Woodbury
identity on first use, from its base's memoised projections alone
(k-sized work), and keeps the result (see :func:`_retarget`).
Junctions with both nodes pinned never reach the update's ``Z`` (no
reduced matrix sees them) but still change ``L``, so they add ``δ`` at
their pinned columns directly.  Every entry point
answers from its entry's state *at call start*: from ``T`` if the
family has one, else from junction sums.  Full solutions for the
entry's own conductances then also take ``col_currents`` from ``T``,
as the same ``T·V`` product, so the board and the solvers agree bit
for bit; variant solutions keep their junction sums.
Only the terminal-current verb counts and builds, after answering, so a
cold first answer is exactly the junction sum.  ``T`` is published
under the cache lock, and the ``crossbar_transfer_total{result=build|
update}`` counter records base builds and derived moves.

Full solutions need every node voltage, which with pinned drivers is
linear in the few drive voltages too: ``x_u = R·V`` for the *port
response* ``R = A⁻¹·B``, one column per driver.  A family with at most
:data:`_TRANSFER_BLOCK` pinned drivers — the Fig. 3 read drives one row
and one column — counts the drive columns the full-solution entry
points (:func:`solve_with_wire_resistance`,
:func:`solve_many_with_wire_resistance`,
:func:`solve_junction_variants`) answer.  Once it has answered as many
as it has drivers, the next such call first builds ``R`` on the real
entry (one multi-RHS solve, held over every node with the identity at
the pinned rows), so a one-off call never builds one and a cold first
answer is unchanged.  A derived entry moves its base's ``R`` on first
use as ``R' = R - Z·M``, with the same ``M`` its transfer-matrix move
uses (see :func:`_port_update`); junctions with both nodes pinned leave
``R`` as it is.  Node voltages come from :func:`_solve_node_voltages` alone,
which reads the entry's ``R`` at call start, so every entry point —
the terminal-current verb's junction sums included — answers one entry
state with the same bits, and only extra right-hand sides (the rank-1
``u`` columns of active variants) still go through the factorization.
The ``crossbar_response_total{result=build|update}`` counter records
base builds and derived moves.

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
wire resistance.  Column currents answered from a transfer matrix
conserve it to rounding of the same order.

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
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import CrossbarError
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer

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

#: Column lines per adjoint block when a sparse entry builds its
#: transfer matrix: bounds the dense ``A⁻¹·L_uᵀ`` block held at once.
_TRANSFER_BLOCK = 8

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
_TRANSFER = _REGISTRY.counter(
    "crossbar_transfer_total",
    "wire-resistance transfer matrices by how they were made")
_TRANSFER_BUILD = _TRANSFER.labels(result="build")
_TRANSFER_UPDATE = _TRANSFER.labels(result="update")
_RESPONSE = _REGISTRY.counter(
    "crossbar_response_total",
    "wire-resistance port responses by how they were made")
_RESPONSE_BUILD = _RESPONSE.labels(result="build")
_RESPONSE_UPDATE = _RESPONSE.labels(result="update")


@lru_cache(maxsize=None)
def _scipy_sparse() -> Optional[Tuple[Callable, Callable]]:
    """SciPy's ``(coo_matrix, splu)``, imported on first use, or ``None``
    without SciPy (the optional ``repro[fast]`` extra)."""
    try:
        from scipy.sparse import coo_matrix
        from scipy.sparse.linalg import splu
    except ImportError:  # pragma: no cover - exercised via backend="dense"
        return None
    return coo_matrix, splu


def scipy_available() -> bool:
    """Whether the sparse (SciPy) backend can be used in this process."""
    return _scipy_sparse() is not None


def _note_solve(counter, unknowns: int, count: int,
                system: Callable[[], Tuple]) -> None:
    """Record *count* solves of a system with *unknowns* unknowns.

    The residual check runs only under tracing: ``system()`` then gives
    the ``(a, b, x)`` to check, so an answer that never built its
    right-hand side builds it only there.  *a* may be a dense ndarray or
    a scipy sparse matrix — both support ``a @ x`` — and *b*, *x* may be
    ``(n, k)`` blocks.
    """
    counter.inc(count)
    _UNKNOWNS.observe(unknowns)
    if _TRACER.enabled:
        a, b, x = system()
        _RESIDUAL.set(float(np.abs(a @ x - b).max()) if unknowns else 0.0)


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
    _check_drives(row_drive, col_drive, g.shape)

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
        _note_solve(_SOLVES_IDEAL, n_unknown, 1, lambda: (a, b, x))
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
    memoises ``A⁻¹u`` and its projections per junction cell
    (``columns``, a :class:`_Columns`) for the derived entries built on
    it; a derived entry has ``g=None`` and ``columns=None``, points at
    that real entry (``base``) and is never used as a base itself.  The
    real entry also counts, for its whole family, the columns the
    terminal-current verb answered (``served``) and the drive columns
    the full-solution entry points answered (``answered``).
    ``transfer`` and ``response`` are the entry's transfer matrix and
    port response once its family has them; a derived entry moves its
    base's through ``change``, the ``(pinned, update)`` pair that
    :func:`_derive` computed (see :func:`_retarget` and :class:`_Update`).
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
    columns: Optional["_Columns"] = None
    base: Optional["_Factorization"] = None
    served: int = 0
    answered: int = 0
    transfer: Optional[np.ndarray] = None
    response: Optional[np.ndarray] = None
    change: Optional[Tuple[Tuple[np.ndarray, ...], Optional["_Update"]]] = None

    def family(self, name: str) -> Optional[np.ndarray]:
        """This entry's ``transfer`` or ``response`` (*name*) if its
        family has one, else None.  A derived entry moves its base's on
        first use (:func:`_retarget`, :func:`_respond`), keeps the
        result and counts it."""
        own = getattr(self, name)
        if own is not None or self.base is None:
            return own
        base = getattr(self.base, name)
        if base is None:
            return None
        transfer = name == "transfer"
        moved = (_retarget if transfer else _respond)(self.base, self.change,
                                                      base)
        with _CACHE_LOCK:
            if getattr(self, name) is None:
                setattr(self, name, moved)
                (_TRANSFER_UPDATE if transfer else _RESPONSE_UPDATE).inc()
            return getattr(self, name)

    def publish(self, name: str) -> None:
        """Build this real entry's ``transfer`` or ``response`` (*name*)
        outside the lock and publish it once, counting the build."""
        transfer = name == "transfer"
        built = (_build_transfer if transfer else _build_response)(self)
        with _CACHE_LOCK:
            if getattr(self, name) is None:
                setattr(self, name, built)
                (_TRANSFER_BUILD if transfer else _RESPONSE_BUILD).inc()

    def note_served(self, count: int) -> None:
        """Count *count* columns the terminal-current verb answered from
        this entry; once its family has served as many as the array has
        column lines (the adjoint build's break-even), build the
        family's transfer matrix on its real entry."""
        root = self.base or self
        with _CACHE_LOCK:
            root.served += count
            due = root.transfer is None and root.served >= root.g.shape[1]
        if due:
            root.publish("transfer")

    def note_answering(self, count: int) -> None:
        """Count *count* drive columns a full-solution entry point is
        about to answer from this entry.  A family that has already
        answered as many as it has pinned drivers (the build's
        break-even: one solve per driver) first builds its port response
        on its real entry, so a one-off call never builds one, however
        many columns it answers.  Only few-driver structures get one
        (pinned drivers, at most :data:`_TRANSFER_BLOCK` of them), so
        ``R`` never outgrows one adjoint block."""
        root = self.base or self
        drivers = root.pinned.size  # 0 when the drivers are resistive
        with _CACHE_LOCK:
            due = (root.response is None and 0 < drivers <= _TRANSFER_BLOCK
                   and root.answered >= drivers)
            root.answered += count
        if due:
            root.publish("response")


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
        return "sparse" if scipy_available() else "dense"
    if backend == "sparse" and not scipy_available():
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
        coo_matrix, _ = _scipy_sparse()
        return coo_matrix((vv, (ri, ci)), shape=(n, n)).tocsr()
    a = np.zeros((n, n))
    np.add.at(a, (ri, ci), vv)
    return a


def _make_solve(a_red, backend: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the reduced system once; return a solve closure.

    The closure accepts a 1-D right-hand side *or* an ``(n, k)``
    multi-column block — sweeps of same-structure drive patterns go
    through the factorization as one multi-RHS solve.  The sparse
    backend lets SuperLU order the system by multiple minimum degree on
    the pattern of ``Aᵀ + A`` (that of ``A`` itself: the nodal matrix is
    symmetric) and pivot on the diagonal where it can, so the closure is
    ``lu.solve`` itself, with no permutation of its own around it.
    """
    n = a_red.shape[0]
    if n == 0:
        return lambda b: np.empty((0,) + np.shape(b)[1:])
    if backend == "sparse":
        _, splu = _scipy_sparse()
        try:
            lu = splu(
                a_red.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True, DiagPivotThresh=0.01),
            )
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
    """A real cache entry: assemble the nodal system of *g* with the
    given drivers and resistances, eliminate pinned driver nodes (when
    drivers are ideal), and factor what remains (:func:`_make_solve`).
    The solve works in the reduced index space as assembled; ``position``
    maps a node to it."""
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
    fact = _Factorization(
        backend=backend,
        n_nodes=n,
        unknown=unknown,
        pinned=pinned,
        position=position,
        driver_nodes=driver_nodes,
        g_drv=g_drv,
        a_red=a_red,
        a_up=a_up,
        solve=_make_solve(a_red, backend),
        g=g.copy(),
    )
    fact.columns = _Columns(fact)
    return fact


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


class _Columns:
    """A real entry's memo, per junction cell, of ``z = A⁻¹u`` and the
    two projections of it that every derived entry built on the entry
    needs: its row of ``ZᵀB`` (``-a_upᵀz``, ``B = -a_up``) and its
    column-line functional ``L_u·z`` (see :func:`_line_coefficients`).

    Rows sit in slot order in blocks of ``2·LOW_RANK_MAX``, the memo's
    bound.  A written row never changes and a full memo is replaced, not
    overwritten, so derived entries keep plain views of the rows they
    use.  Filled under :data:`_CACHE_LOCK`.
    """

    def __init__(self, fact: _Factorization) -> None:
        size = 2 * LOW_RANK_MAX
        self.slot: Dict[int, int] = {}
        self.z = np.empty((size, fact.unknown.size))
        self.z_b = np.empty((size, fact.pinned.size))
        self.l_z = np.empty((size, fact.g.shape[1]))
        # B's transpose, formed once: SciPy re-forms it on every ``.T``.
        self.b_t = None if fact.a_up is None else -fact.a_up.T
        # L_u as each unknown's column line and coefficient, formed once.
        self.line_u = fact.unknown % fact.g.shape[1]
        self.coef_u = _line_coefficients(fact)[fact.unknown]

    def __len__(self) -> int:
        return len(self.slot)

    def items(self) -> List[Tuple[int, np.ndarray]]:
        """``(cell, A⁻¹u)`` per memoised junction, in slot order."""
        return [(cell, self.z[slot]) for cell, slot in self.slot.items()]

    def row(self, cell: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        slot = self.slot[cell]
        return self.z[slot], self.z_b[slot], self.l_z[slot]

    def add(self, cell: int, row: Tuple[np.ndarray, ...]) -> None:
        slot = len(self.slot)
        self.z[slot], self.z_b[slot], self.l_z[slot] = row
        self.slot[cell] = slot


def _base_columns(
    base: _Factorization, cells: np.ndarray, pi: np.ndarray, pj: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(order, Z, ZᵀB, L_u·Z)`` for *cells* from *base*'s memo: the
    blocks hold one row per junction, in memo slot order, and *order*
    sorts *cells* into it.  Only the junctions new to the memo go
    through the factorization (as one multi-RHS block), so a write costs
    one ``A⁻¹u`` solve per base.  While the junctions hold the memo's
    first slots — every write since the base was to a new cell — the
    blocks are views, and no n-length row is copied."""
    keys = cells.tolist()
    with _CACHE_LOCK:
        memo = base.columns
        rows = {cell: memo.row(cell) for cell in keys if cell in memo.slot}
    missing = [k for k, cell in enumerate(keys) if cell not in rows]
    if missing:
        z = base.solve(_u_columns(pi[missing], pj[missing], base.unknown.size))
        if not np.isfinite(z).all():
            raise CrossbarError("singular crossbar system")
        z_b = (np.empty((0, len(missing))) if memo.b_t is None
               else memo.b_t @ z)
        for n, k in enumerate(missing):
            l_z = np.bincount(memo.line_u, memo.coef_u * z[:, n],
                              minlength=memo.l_z.shape[1])
            rows[keys[k]] = (z[:, n], z_b[:, n], l_z)
    with _CACHE_LOCK:
        memo = base.columns
        absent = [cell for cell in keys if cell not in memo.slot]
        if len(memo) + len(absent) > len(memo.z):
            # Full: a fresh memo holds just this update's junctions.
            base.columns = memo = _Columns(base)
            absent = keys
        for cell in absent:
            memo.add(cell, rows[cell])
        slots = np.array([memo.slot[cell] for cell in keys])
        order = np.argsort(slots)
        pick = slots[order]
        if pick[-1] == pick.size - 1:
            pick = slice(0, pick.size)
        return order, memo.z[pick], memo.z_b[pick], memo.l_z[pick]


class _Update(NamedTuple):
    """A derived entry's Woodbury terms for the changed junctions that a
    reduced matrix sees, one per junction in its base memo's slot order:
    column ``line``, conductance change ``d``, reduced ports ``pi``/``pj``
    and pinned-block ports ``qi``/``qj`` (-1 = none), the memo rows ``z``
    (``Zᵀ``, one ``A⁻¹u`` per row), ``z_b`` (``ZᵀB``) and ``l_z``
    (``(L_u·Z)ᵀ``), ``u_z = UᵀZ`` and ``gain = (I + D·UᵀZ)⁻¹·D``."""

    line: np.ndarray
    d: np.ndarray
    pi: np.ndarray
    pj: np.ndarray
    qi: np.ndarray
    qj: np.ndarray
    z: np.ndarray
    z_b: np.ndarray
    l_z: np.ndarray
    u_z: np.ndarray
    gain: np.ndarray


def _derive(
    base: _Factorization, g: np.ndarray, cells: np.ndarray
) -> Optional[_Factorization]:
    """A derived entry for *g*, which differs from *base* in *cells*;
    None when the low-rank update is unsafe (factor afresh instead)."""
    d = g.ravel()[cells] - base.g.ravel()[cells]
    pi, pj = _ports(base, cells)
    # Each junction node's column in the pinned (driver) block; -1 = free.
    qi, qj = (np.where(p < 0, np.searchsorted(base.pinned, nodes), -1)
              for p, nodes in ((pi, cells), (pj, base.n_nodes // 2 + cells)))
    lines = cells % base.g.shape[1]
    # A junction with both nodes pinned only re-routes current through
    # the ideal sources: no reduced matrix sees it, only its column
    # line's current does.
    both = (pi < 0) & (pj < 0)
    pinned = (lines[both], d[both], qi[both], qj[both])
    free = ~both
    cells, d, pi, pj, qi, qj, lines = (
        a[free] for a in (cells, d, pi, pj, qi, qj, lines))
    if not cells.size:
        return replace(base, g=None, columns=None, base=base, transfer=None,
                       response=None, change=(pinned, None))
    try:
        order, z, z_b, l_z = _base_columns(base, cells, pi, pj)
    except CrossbarError:
        return None  # a singular base (the dense backend solves lazily)
    d, pi, pj, qi, qj, lines = (a[order] for a in (d, pi, pj, qi, qj, lines))
    u_z = _u_dot(z.T, pi, pj)
    capacitance = np.eye(d.size) + d[:, None] * u_z
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
        _u_add(b, -(gain @ (z[:, support] @ b[support])), pi, pj)
        return base.solve(b)

    a_up = base.a_up
    if a_up is not None and ((pi < 0) | (pj < 0)).any():
        # Pinned drivers: a junction with one pinned node also changes
        # the coupling block, at the pinned node's column (a write away
        # from the driven line ends leaves it as it is).
        a_up = _Stamped(a_up, (pi, pj), (qi, qj), d)
    return replace(
        base, a_red=_Stamped(base.a_red, (pi, pj), (pi, pj), d), a_up=a_up,
        solve=solve, g=None, columns=None, base=base, transfer=None,
        response=None, change=(pinned, _Update(lines, d, pi, pj, qi, qj, z,
                                               z_b, l_z, u_z, gain)),
    )


def _line_coefficients(fact: _Factorization) -> np.ndarray:
    """The column-current functional ``c_j = Σ_r g[r,j]·(x_row(r,j) -
    x_col(r,j))`` of real entry *fact*, as one coefficient per node;
    node ``i`` feeds column line ``i % cols``."""
    return np.concatenate([fact.g.ravel(), -fact.g.ravel()])


def _build_transfer(fact: _Factorization) -> np.ndarray:
    """Real entry *fact*'s transfer matrix ``T = Wᵀ·B + L_p`` (one row
    per column line, one column per pinned driver), with ``B = -a_up``
    and ``W = A⁻¹·L_uᵀ`` solved from the adjoint — ``A`` is symmetric —
    in blocks of :data:`_TRANSFER_BLOCK` lines, each folded into ``T``
    at once so the dense ``W`` never exists.  The dense backend
    refactors on every solve, so it takes all lines in one block."""
    coef = _line_coefficients(fact)
    lines = fact.g.shape[1]
    line = np.arange(fact.n_nodes) % lines
    transfer = np.zeros((lines, fact.pinned.size))
    transfer[line[fact.pinned], np.arange(fact.pinned.size)] = coef[fact.pinned]
    if not fact.unknown.size:
        return transfer
    u_line, u_coef = line[fact.unknown], coef[fact.unknown]
    step = _TRANSFER_BLOCK if fact.backend == "sparse" else lines
    for first in range(0, lines, step):
        last = min(first + step, lines)
        nodes = np.flatnonzero((u_line >= first) & (u_line < last))
        adjoint = np.zeros((fact.unknown.size, last - first))
        adjoint[nodes, u_line[nodes] - first] = u_coef[nodes]
        transfer[first:last] -= (fact.a_up.T @ fact.solve(adjoint)).T
    return transfer


def _port_update(base: _Factorization, update: _Update
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The Woodbury terms a derived entry's port maps share.

    The write moves ``A`` by ``U·D·Uᵀ`` and ``B = -a_up`` by ``-U·D·Qᵀ``
    (``Q`` the junctions' pinned ports), so with ``ZᵀB = UᵀR`` by
    symmetry the port response moves as ``R' = R - Z·M``,

        M = D·Qᵀ + gain·(ZᵀB - UᵀZ·D·Qᵀ).

    Every factor is k-sized (*update* carries ``ZᵀB`` and ``UᵀZ``).
    Returns ``(Qᵀ, M)``.
    """
    q_t = np.zeros((update.d.size, base.pinned.size))
    for ports, sign in ((update.qi, 1.0), (update.qj, -1.0)):
        hit = np.flatnonzero(ports >= 0)
        q_t[hit, ports[hit]] = sign
    d_q = update.d[:, None] * q_t
    return q_t, d_q + update.gain @ (update.z_b - update.u_z @ d_q)


def _retarget(base: _Factorization, change: Tuple, transfer: np.ndarray
              ) -> np.ndarray:
    """Map *base*'s transfer matrix to a derived entry's conductances.

    *change* is the entry's ``(pinned, update)``.  *pinned* holds
    ``(line, δ, qi, qj)`` of the changed junctions with both nodes
    pinned: they move only their column's current, by ``δ`` at their
    pinned driver columns.  For the others (*update*, see
    :func:`_port_update`) Woodbury gives, from the base memo's
    projections alone (no n-length work),

        T' = T + S·D·(ZᵀB + Qᵀ) - (L_u·Z + S·D·UᵀZ)·M,

    with ``S`` mapping each junction to its column line.
    """
    pinned, update = change
    transfer = transfer.copy()
    line, d, qi, qj = pinned
    for ports, sign in ((qi, 1.0), (qj, -1.0)):
        np.add.at(transfer, (line, ports), sign * d)
    if update is None:
        return transfer
    q_t, m = _port_update(base, update)
    k = update.d.size
    s_d = np.zeros((transfer.shape[0], k))
    s_d[update.line, np.arange(k)] = update.d
    transfer += (s_d @ (update.z_b + q_t)
                 - (update.l_z.T + s_d @ update.u_z) @ m)
    return transfer


def _respond(base: _Factorization, change: Tuple, response: np.ndarray
             ) -> np.ndarray:
    """Map *base*'s port response to a derived entry's conductances,
    ``R' = R - Z·M`` (see :func:`_port_update`).  Junctions with both
    nodes pinned move no unknown node, so they leave ``R`` as it is."""
    update = change[1]
    if update is None:
        return response
    shift = update.z.T @ _port_update(base, update)[1]
    moved = response.copy()
    # The unknowns are every node but the few pinned ones, so subtract
    # run by run rather than scatter through an n-length index.
    start = 0
    for skipped, stop in enumerate(base.pinned.tolist() + [base.n_nodes]):
        moved[start:stop] -= shift[start - skipped:stop - skipped]
        start = stop + 1
    return moved


def _build_response(fact: _Factorization) -> np.ndarray:
    """Real entry *fact*'s port response: ``R = A⁻¹·B`` with ``B =
    -a_up``, one column per pinned driver from one multi-RHS solve, held
    over every node with the identity at the pinned rows, so that
    ``R·V`` is a drive block's whole node-voltage block."""
    drivers = fact.pinned.size
    response = np.zeros((fact.n_nodes, drivers))
    response[fact.pinned, np.arange(drivers)] = 1.0
    response[fact.unknown] = fact.solve(-(fact.a_up @ np.eye(drivers)))
    return response


def _digest(g: np.ndarray) -> bytes:
    """The cache key's conductance digest: blake2b over *g*'s bytes."""
    return hashlib.blake2b(np.ascontiguousarray(g).tobytes(),
                           digest_size=16).digest()


def _get_factorization(
    g: np.ndarray,
    digest: bytes,
    row_idx: Tuple[int, ...],
    col_idx: Tuple[int, ...],
    wire_resistance: float,
    driver_resistance: float,
    backend: str,
) -> _Factorization:
    # *digest* is _digest(g) of g's current bytes, taken per call for a
    # caller's array and once per written state by a board: changed
    # bytes hash to a different key and force a rebuild (or a low-rank
    # update of a base whose own copy of g is compared cell by cell).
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
    served = answered = 0
    flat = g.ravel()
    for k, candidate in bases:
        changed = np.flatnonzero(candidate.g.ravel() != flat)
        if changed.size <= 2 * LOW_RANK_MAX:
            # A base this close is one the new state was written from.
            served = max(served, candidate.served)
            answered = max(answered, candidate.answered)
        if changed.size <= LOW_RANK_MAX and (
                cells is None or changed.size < cells.size):
            base_key, base, cells = k, candidate, changed
    fact = _derive(base, g, cells) if base is not None else None
    if fact is None:
        _CACHE_MISS.inc()
        fact = _build_factorization(
            g, row_idx, col_idx, wire_resistance, driver_resistance, backend
        )
        # A re-based family stays hot: the fresh base inherits the
        # counts of the bases it replaces, so its first read builds the
        # T or R they had instead of answering cold until it has served
        # as many columns again.  A reprogrammed array starts cold.
        fact.served, fact.answered = served, answered
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


def _check_conductances(conductances: np.ndarray) -> np.ndarray:
    """A caller's conductance matrix as a checked 2-D float array."""
    g = np.asarray(conductances, dtype=float)
    if g.ndim != 2:
        raise CrossbarError(f"conductance matrix must be 2-D, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise CrossbarError("conductances must be finite")
    if (g < 0).any():
        raise CrossbarError("conductances must be non-negative")
    return g


def _check_options(shape: Tuple[int, ...], wire_resistance: float,
                   driver_resistance: float, backend: str) -> str:
    """Check a wire-resistance problem's scalars; the resolved backend."""
    rows, cols = shape
    if not (math.isfinite(wire_resistance) and wire_resistance > 0):
        raise CrossbarError(
            f"wire_resistance must be finite and positive, got {wire_resistance!r}")
    if not (math.isfinite(driver_resistance) and driver_resistance >= 0):
        raise CrossbarError("driver_resistance must be finite and "
                            f"non-negative, got {driver_resistance!r}")
    backend = _resolve_backend(backend)
    n = 2 * rows * cols
    if backend == "dense" and n >= DENSE_NODE_LIMIT:
        raise CrossbarError(
            f"{rows}x{cols} ({n} nodes) is too large for the dense "
            f"wire-resistance fallback (limit {DENSE_NODE_LIMIT} nodes); "
            "install scipy (the repro[fast] extra) for the sparse backend"
        )
    return backend


def _rhs(fact: _Factorization, drive_volts: np.ndarray) -> np.ndarray:
    """Reduced right-hand side for a ``(n_drivers, k)`` drive block."""
    if fact.g_drv is None:
        # Pinned drivers: the un-pinned KCL rows see the drivers through
        # the boundary coupling block.
        return -(fact.a_up @ drive_volts)
    b_red = np.zeros((fact.n_nodes, drive_volts.shape[1]))
    b_red[fact.driver_nodes] = fact.g_drv * drive_volts
    return b_red


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

    Once *fact*'s family has a port response ``R`` (looked up once, at
    call start) the node voltages are ``R·V`` instead, and only *extra*
    goes through the factorization.
    """
    k = drive_volts.shape[1]
    response = fact.family("response")
    if response is not None:
        x = response @ drive_volts
        z = (np.empty((fact.unknown.size, 0)) if extra is None
             else fact.solve(extra))
        finite = np.isfinite(x).all() and np.isfinite(z).all()
    else:
        b_red = _rhs(fact, drive_volts)
        block = b_red if extra is None else np.hstack([b_red, extra])
        solved = fact.solve(block) if fact.unknown.size else block
        z = solved[:, k:]
        if fact.g_drv is None:
            x = np.empty((fact.n_nodes, k))
            x[fact.pinned] = drive_volts
            x[fact.unknown] = solved[:, :k]
        else:
            x = solved[:, :k]
        finite = np.isfinite(solved).all()
    if not finite:
        raise CrossbarError("singular crossbar system")
    _note_solve(_SOLVES_WIRE, fact.unknown.size, k, lambda: (
        fact.a_red, _rhs(fact, drive_volts), x[fact.unknown]))
    return x, z


def _wire_solution(
    g: np.ndarray, x: np.ndarray, col_currents: Optional[np.ndarray] = None
) -> CrossbarSolution:
    """Package one node-voltage vector as a :class:`CrossbarSolution`;
    *col_currents*, when given, come from the entry's transfer matrix."""
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
        col_currents=currents.sum(axis=0) if col_currents is None
        else col_currents,
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
    g = _check_conductances(conductances)
    return _solve(g, _digest(g), row_drive, col_drive, wire_resistance,
                  driver_resistance, backend)


def _solve(g: np.ndarray, digest: bytes, row_drive: LineDrive,
           col_drive: LineDrive, wire_resistance: float,
           driver_resistance: float, backend: str) -> CrossbarSolution:
    """Checked-*g* core of :func:`solve_with_wire_resistance`."""
    backend = _check_options(g.shape, wire_resistance, driver_resistance,
                             backend)
    row_idx, col_idx, volts = _check_drives(row_drive, col_drive, g.shape)
    fact = _get_factorization(g, digest, row_idx, col_idx, wire_resistance,
                              driver_resistance, backend)
    transfer = fact.family("transfer")
    drive_volts = volts[:, None]
    fact.note_answering(1)
    x, _ = _solve_node_voltages(fact, drive_volts)
    return _wire_solution(g, x[:, 0], None if transfer is None
                          else (transfer @ drive_volts)[:, 0])


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
    g = _check_conductances(conductances)
    backend = _check_options(g.shape, wire_resistance, driver_resistance,
                             backend)
    if not drives:
        return []
    groups: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[int]] = {}
    patterns: List[np.ndarray] = []
    for index, (row_drive, col_drive) in enumerate(drives):
        try:
            row_idx, col_idx, volts = _check_drives(row_drive, col_drive,
                                                    g.shape)
        except CrossbarError as exc:
            raise CrossbarError(f"drive pattern {index}: {exc}") from None
        groups.setdefault((row_idx, col_idx), []).append(index)
        patterns.append(volts)

    solutions: List[Optional[CrossbarSolution]] = [None] * len(drives)
    digest = _digest(g)
    for (row_idx, col_idx), members in groups.items():
        fact = _get_factorization(g, digest, row_idx, col_idx,
                                  wire_resistance, driver_resistance, backend)
        transfer = fact.family("transfer")
        drive_volts = np.empty((len(row_idx) + len(col_idx), len(members)))
        for column, index in enumerate(members):
            drive_volts[:, column] = patterns[index]
        fact.note_answering(len(members))
        x, _ = _solve_node_voltages(fact, drive_volts)
        currents = (None if transfer is None
                    else transfer @ drive_volts)
        for column, index in enumerate(members):
            solutions[index] = _wire_solution(
                g, x[:, column], None if currents is None
                else currents[:, column])
    return [s for s in solutions if s is not None]


def column_currents_with_wire_resistance(
    conductances: np.ndarray,
    row_volts: np.ndarray,
    wire_resistance: float = 1.0,
    backend: str = "auto",
) -> np.ndarray:
    """Column terminal currents ``(k, cols)`` for a ``(k, rows)`` block
    of row voltages, every column grounded and every driver ideal.

    The batched analog read (the board's ``column_currents`` verbs)
    needs only terminal currents, which are linear in the drive
    voltages.  Until the cache entry's family has a transfer matrix,
    the block goes through the factorization as one multi-column solve
    and each column current is its line's junction-current sum, bit for
    bit what :func:`solve_many_with_wire_resistance` returns.  Once the
    family has served as many columns as the array has column lines it
    builds one, and later reads are a ``(cols, drivers)`` matrix
    product with no sparse solve (see the module docstring).
    """
    g = _check_conductances(conductances)
    return _column_currents(g, _digest(g), row_volts, wire_resistance,
                            backend)


def _column_currents(g: np.ndarray, digest: bytes, row_volts: np.ndarray,
                     wire_resistance: float, backend: str) -> np.ndarray:
    """Checked-*g* core of :func:`column_currents_with_wire_resistance`."""
    backend = _check_options(g.shape, wire_resistance, 0.0, backend)
    rows, cols = g.shape
    v = np.asarray(row_volts, dtype=float)
    if v.ndim != 2 or v.shape[1] != rows:
        raise CrossbarError(
            f"row voltage block shape {v.shape} does not match (k, {rows})")
    if not np.isfinite(v).all():
        k, row = np.argwhere(~np.isfinite(v))[0]
        raise CrossbarError(f"drive pattern {k}: row {row} drive voltage "
                            f"must be finite, got {float(v[k, row])!r}")
    if not v.shape[0]:
        return np.empty((0, cols))
    fact = _get_factorization(g, digest, tuple(range(rows)), tuple(range(cols)),
                              wire_resistance, 0.0, backend)
    transfer = fact.family("transfer")
    drive_volts = np.zeros((rows + cols, v.shape[0]))
    drive_volts[:rows] = v.T
    if transfer is not None:
        _SOLVES_WIRE.inc(v.shape[0])
        currents = (transfer @ drive_volts).T
    else:
        x, _ = _solve_node_voltages(fact, drive_volts)
        currents = np.stack([_wire_solution(g, x[:, k]).col_currents
                             for k in range(v.shape[0])])
    fact.note_served(v.shape[0])
    return currents


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
    g = _check_conductances(conductances)
    return _junction_variants(g, _digest(g), row_drive, col_drive, variants,
                              wire_resistance, driver_resistance, backend)


def _junction_variants(
    g: np.ndarray, digest: bytes, row_drive: LineDrive, col_drive: LineDrive,
    variants: Sequence[Tuple[int, int, float]], wire_resistance: float,
    driver_resistance: float, backend: str,
) -> Tuple[CrossbarSolution, List[CrossbarSolution]]:
    """Checked-*g* core of :func:`solve_junction_variants`."""
    backend = _check_options(g.shape, wire_resistance, driver_resistance,
                             backend)
    rows, cols = g.shape
    row_idx, col_idx, drive_volts = _check_drives(row_drive, col_drive,
                                                  g.shape)
    cells = np.empty(len(variants), dtype=np.intp)
    deltas = np.empty(len(variants))
    for k, (row, col, g_new) in enumerate(variants):
        _check_index(row, "variant row")
        _check_index(col, "variant col")
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

    fact = _get_factorization(g, digest, row_idx, col_idx, wire_resistance,
                              driver_resistance, backend)
    # A variant moves no node voltage when it changes nothing or when
    # both its junction nodes are pinned by drivers (the change only
    # re-routes current through the ideal sources).
    pi, pj = _ports(fact, cells)
    active = np.flatnonzero((deltas != 0.0) & ((pi >= 0) | (pj >= 0)))
    pi, pj, d = pi[active], pj[active], deltas[active]
    # The base right-hand side and every active variant's u column go
    # through the factorization as one multi-RHS block.
    transfer = fact.family("transfer")
    fact.note_answering(1)
    x, z = _solve_node_voltages(
        fact, drive_volts[:, None],
        _u_columns(pi, pj, fact.unknown.size) if active.size else None)
    x_base = x[:, 0]
    base = _wire_solution(g, x_base, None if transfer is None else
                          (transfer @ drive_volts[:, None])[:, 0])
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
            results.append(_solve(g_var, _digest(g_var), row_drive, col_drive,
                                  wire_resistance, driver_resistance, backend))
        else:
            x = x_base.copy()
            x[fact.unknown] = y0 - shift[m] * z[:, m]
            if not np.isfinite(x).all():
                raise CrossbarError("singular crossbar system")
            results.append(_wire_solution(g_var, x))
    return base, results


def _check_index(index, kind: str) -> None:
    """Refuse a line index that is not an integer (a Python int or a
    NumPy integer): a fractional one would land on a wrong node, and a
    bool (which Python counts as an int) would silently drive line 1."""
    try:
        if isinstance(index, bool):
            raise TypeError
        operator.index(index)
    except TypeError:
        raise CrossbarError(
            f"{kind} index {index!r} must be an integer") from None


def _check_drives(
    row_drive: LineDrive, col_drive: LineDrive, shape: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], np.ndarray]:
    """Check one drive pattern against an array of *shape*; its driven
    rows and columns, sorted, and their voltages in that order."""
    _check_drive(row_drive, shape[0], "row")
    _check_drive(col_drive, shape[1], "col")
    if not row_drive and not col_drive:
        raise CrossbarError("at least one line must be driven")
    row_idx, col_idx = tuple(sorted(row_drive)), tuple(sorted(col_drive))
    return row_idx, col_idx, np.array(
        [row_drive[r] for r in row_idx] + [col_drive[c] for c in col_idx])


def _check_drive(drive: LineDrive, count: int, kind: str) -> None:
    for index, volts in drive.items():
        _check_index(index, kind)
        if not 0 <= index < count:
            raise CrossbarError(f"{kind} index {index} outside 0..{count - 1}")
        if not math.isfinite(volts):
            raise CrossbarError(
                f"{kind} {index} drive voltage must be finite, got {volts!r}")
