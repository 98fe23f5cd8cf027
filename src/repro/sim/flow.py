"""Fluid-flow network: concurrent transfers over state-dependent resources.

This module is the performance heart of the reproduction (DESIGN.md §5).
Every PMEM transfer issued by a simulated rank becomes a :class:`Flow`
traversing one or more :class:`CapacityResource` objects (the device read or
write port, the remote NUMA path, ...).  Instead of simulating individual
cache-line accesses, the network treats transfers as fluids and solves for
their average rates whenever the set of active flows changes, using a
*processor-sharing* model with software-overhead duty cycles:

1.  Each flow has a *self cap* ``R_self = bytes_per_op / (t_sw + t_lat)``,
    the throughput it would achieve on an infinitely fast device.  This
    models per-object software-stack overhead (NOVAfs syscalls, NVStream
    metadata) and idle device latency.
2.  A flow occupies the device only while it is actually transferring.  Its
    *duty cycle* is ``u = 1 - A / R_self`` (the fraction of wall time not
    spent in software), where ``A`` is its achieved average rate.
3.  While on the device, a flow proceeds at the instantaneous rate
    ``D = min over path resources r of  C_r(load) / max(1, U_r)``, where
    ``U_r`` is the total duty-weighted occupancy of resource *r* and
    ``C_r(load)`` is the resource's state-dependent capacity curve (this is
    where the non-linear Optane concurrency scaling enters).  Resources may
    additionally impose a per-thread instantaneous cap (a single thread
    cannot extract the device's full interleaved bandwidth).
4.  The achieved rate is the harmonic combination
    ``A = 1 / (1/R_self + 1/D)``; the solver iterates 2–4 to a damped fixed
    point.

A pleasant property of this system: for *n* identical flows on one resource,
the fixed point satisfies ``Σ A_f = C`` exactly once the device saturates,
and ``A_f → R_self`` (device untouched) when software overhead dominates —
i.e. capacity conservation and the paper's "high software overhead lowers
PMEM contention" observation (§VIII) both fall out of the model rather than
being special-cased.

Key emergent behaviours, each a headline observation of the paper:

* many small objects → high per-op software cost → low duty cycle → low
  effective device concurrency → parallel execution is cheap (§VIII);
* large objects → duty ≈ 1 → device saturates → serial execution and
  write-local placement win at high concurrency (§VI-A);
* compute phases don't create flows at all → interleaved compute hides
  contention (§VIII).
"""

from __future__ import annotations

import importlib.util
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Timer

#: Flows with fewer residual bytes than this are considered complete.
COMPLETION_EPSILON_BYTES = 1e-3

#: Lower clamp for duty cycles (keeps occupancy sums well conditioned).
MIN_DUTY = 1e-6

#: Fixed-point iterations for the duty-cycle solve.
DUTY_ITERATIONS = 24

#: Damping factor for the duty-cycle fixed point (1.0 = undamped).
DUTY_DAMPING = 0.6

#: Relative convergence tolerance on rates.
RATE_TOLERANCE = 1e-5

#: Bounded LRU capacity for the converged-state memo (entries per network).
MEMO_CAPACITY = 256

#: Environment variable selecting the solver implementation per network.
SOLVER_ENV = "REPRO_SOLVER"

#: Equivalence-class solver with converged-state memoization (the default).
SOLVER_FAST = "fast"

#: Straightforward per-flow fixed point — the byte-identity oracle the fast
#: path is validated against (``REPRO_SOLVER=reference``).
SOLVER_REFERENCE = "reference"


def numpy_available() -> bool:
    """Whether numpy is installed (checked without importing it).

    The simulator never uses numpy; the benchmark's environment stamp
    still reports it.
    """
    return importlib.util.find_spec("numpy") is not None


def default_solver() -> str:
    """Solver used when neither argument nor ``REPRO_SOLVER`` picks one."""
    return os.environ.get(SOLVER_ENV) or SOLVER_FAST


@dataclass
class ResourceLoad:
    """Duty-weighted view of the flows currently traversing one resource.

    Capacity models receive this object and may key their curves on any of
    the fields.  ``n_*`` fields are duty-weighted effective thread counts
    (floats); ``raw_*`` fields are plain flow counts.  ``*_op_bytes`` are
    duty-weighted geometric means of the per-operation access size.
    """

    n_read_local: float = 0.0
    n_read_remote: float = 0.0
    n_write_local: float = 0.0
    n_write_remote: float = 0.0
    raw_read_local: int = 0
    raw_read_remote: int = 0
    raw_write_local: int = 0
    raw_write_remote: int = 0
    read_op_bytes: float = 0.0
    write_op_bytes: float = 0.0
    #: Issue-capability-weighted remote-write occupancy: each flow
    #: contributes ``min(duty, issue_weight)``.  Software-bound flows have
    #: a bounded issue rate and cannot congest the cross-socket path no
    #: matter how long they queue on the device — using the raw duty here
    #: would create a congestion death-spiral (slow device -> higher duty
    #: -> more congestion -> slower device).
    congestion_write_remote: float = 0.0

    @property
    def n_reads(self) -> float:
        """Duty-weighted effective number of concurrent readers."""
        return self.n_read_local + self.n_read_remote

    @property
    def n_writes(self) -> float:
        """Duty-weighted effective number of concurrent writers."""
        return self.n_write_local + self.n_write_remote

    @property
    def n_total(self) -> float:
        return self.n_reads + self.n_writes

    @property
    def n_remote(self) -> float:
        return self.n_read_remote + self.n_write_remote

    @property
    def raw_total(self) -> int:
        return (
            self.raw_read_local
            + self.raw_read_remote
            + self.raw_write_local
            + self.raw_write_remote
        )


CapacityFn = Callable[[ResourceLoad], float]

#: Per-flow fields :meth:`CapacityResource.share` may read (its contract).
_SHARE_FIELDS = ("kind", "remote", "self_cap", "op_bytes", "issue_weight")


def _unprojected(flow: "Flow") -> tuple:
    """Share projector of resources whose ``share()`` reads no flow field."""
    return ()


class CapacityResource:
    """A shared resource whose capacity depends on the current load mix.

    The solver asks the resource, for each flow traversing it, what
    *instantaneous* rate the flow would get while actively on the resource,
    given the duty-weighted :class:`ResourceLoad`.  The default policy is
    plain processor sharing — aggregate capacity divided by total occupancy,
    clipped at an optional per-thread cap.  Device models (the Optane
    resource in :mod:`repro.pmem.device`) subclass and override
    :meth:`share` to hand out kind- and locality-specific rates.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    capacity_fn:
        Callable mapping a :class:`ResourceLoad` to an aggregate capacity in
        bytes/s.  May return ``math.inf`` for an unconstrained resource.
    per_thread_cap_fn:
        Optional callable mapping a :class:`ResourceLoad` to the maximum
        instantaneous rate a *single* flow can extract (e.g. one thread
        cannot saturate six interleaved Optane DIMMs by itself).  Defaults
        to unbounded.
    """

    __slots__ = ("name", "_capacity_fn", "_per_thread_cap_fn")

    #: Solver-signature fields :meth:`share` actually reads, declared by
    #: subclasses that override :meth:`share`.  ``None`` (the default for
    #: overriding subclasses) means "any of them" — the solver then
    #: evaluates one share per full signature.  Declaring a subset (e.g.
    #: ``("kind", "remote")`` for the Optane device) lets the solver share
    #: one evaluation across every class whose projection matches, which is
    #: bit-exact because identical operands give identical IEEE-754 results.
    #: Resources that do not override :meth:`share` are grouped on the load
    #: alone (the default policy reads no per-flow field).
    share_signature_fields: Optional[Tuple[str, ...]] = None

    #: ``share_projector(flow)``: the part of *flow* this resource type's
    #: :meth:`share` reads, per :attr:`share_signature_fields`.  Flows with
    #: equal projections get bit-identical shares from one load, so one
    #: ``share()`` call stands for all of them.  Set once per subclass by
    #: :meth:`__init_subclass__`.
    share_projector: Callable[["Flow"], object] = staticmethod(_unprojected)

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.share is CapacityResource.share:
            fields: Tuple[str, ...] = ()
        elif cls.share_signature_fields is None:
            # Undeclared override: assume it reads the full signature
            # (duty excepted — the contract has never allowed it).
            fields = _SHARE_FIELDS
        else:
            fields = cls.share_signature_fields
        cls.share_projector = (
            attrgetter(*fields) if fields else staticmethod(_unprojected)
        )

    def __init__(
        self,
        name: str,
        capacity_fn: Optional[CapacityFn] = None,
        per_thread_cap_fn: Optional[CapacityFn] = None,
    ) -> None:
        self.name = name
        self._capacity_fn = capacity_fn
        self._per_thread_cap_fn = per_thread_cap_fn

    def capacity(self, load: ResourceLoad) -> float:
        """Evaluate the aggregate capacity curve for *load*."""
        if self._capacity_fn is None:
            return math.inf
        value = self._capacity_fn(load)
        if value < 0 or math.isnan(value):
            raise SimulationError(
                f"capacity model for {self.name!r} returned invalid value {value}"
            )
        return value

    def per_thread_cap(self, load: ResourceLoad) -> float:
        """Evaluate the single-flow instantaneous rate cap for *load*."""
        if self._per_thread_cap_fn is None:
            return math.inf
        value = self._per_thread_cap_fn(load)
        if value <= 0 or math.isnan(value):
            raise SimulationError(
                f"per-thread cap for {self.name!r} returned invalid value {value}"
            )
        return value

    def share(self, load: ResourceLoad, flow: "Flow") -> float:
        """Instantaneous rate available to *flow* while it occupies the resource.

        Default: processor sharing of the aggregate capacity across the
        duty-weighted total occupancy, clipped at the per-thread cap.

        Contract (relied on by the equivalence-class solver): the result may
        depend only on *load*, the resource's own state, and the flow's
        solver-signature fields (``kind``, ``remote``, ``self_cap``,
        ``op_bytes``, ``issue_weight``) — never on flow identity, label, or
        residual bytes.  Flows with identical signatures must receive
        identical shares.
        """
        return min(
            self.capacity(load) / max(1.0, load.n_total),
            self.per_thread_cap(load),
        )

    def observe(self, now: float, load: ResourceLoad) -> None:
        """Hook invoked by the flow network on every rate recomputation.

        Stateful device models (e.g. the Optane congestion EWMA) override
        this; the default resource is stateless.
        """

    def share_state_token(self, kind: str, remote: bool) -> object:
        """Mutable state :meth:`share` reads for ``(kind, remote)`` flows.

        The converged-state memo (see :func:`solve_flow_set`) may only serve
        a cached solve when every resource on the path would hand out the
        same shares as when the entry was recorded.  The protocol:

        * resources that override neither this method nor :meth:`observe`
          are treated as stateless (empty token);
        * resources that override :meth:`observe` are assumed stateful — the
          memo is bypassed unless they also override this method to expose
          exactly the state :meth:`share` reads for each ``(kind, remote)``
          combination (a device whose read path reads no mutable state can
          return ``()`` for reads, so memo entries for read-only flow sets
          survive write-side state churn);
        * returning ``None`` marks the combination opaque (memo bypass);
        * state mutated through neither channel (e.g. a closure captured by
          ``capacity_fn``) must be announced via :meth:`FlowNetwork.poke`,
          which flushes the memo.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CapacityResource {self.name}>"


@dataclass(eq=False)
class Flow:
    """One in-flight bulk transfer.

    Flows compare and hash by identity (``eq=False``): the solver keys
    rate dicts on flow objects, and two transfers with equal fields are
    still two transfers.

    ``kind``, ``remote``, ``resources``, ``self_cap``, ``op_bytes`` and
    ``issue_weight`` are fixed at construction: :attr:`shape` captures
    them once for the solver, so reassigning one afterwards is an error
    the solver cannot see.

    Parameters
    ----------
    nbytes:
        Total payload of the transfer.
    kind:
        ``"read"`` or ``"write"`` — selects which capacity curves apply.
    remote:
        ``True`` when the issuing CPU and the target PMEM are on different
        sockets (the transfer then traverses the remote-path resource too).
    resources:
        The capacity resources on the transfer's path.
    self_cap:
        Software-overhead throughput cap in bytes/s (``math.inf`` when the
        per-op software cost is negligible).
    op_bytes:
        Bytes moved per logical operation (object size as seen by the
        device); used by capacity curves for access-granularity effects.
    label:
        Trace label.
    """

    nbytes: float
    kind: str
    remote: bool
    resources: Tuple[CapacityResource, ...]
    self_cap: float = math.inf
    op_bytes: float = 0.0
    label: str = ""
    #: Upper bound on this flow's contribution to congestion accounting
    #: (see :attr:`ResourceLoad.congestion_write_remote`); typically
    #: ``self_cap / (self_cap + single_thread_device_rate)``.
    issue_weight: float = 1.0

    # Runtime state managed by FlowNetwork.
    remaining: float = field(init=False, default=0.0)
    rate: float = field(init=False, default=0.0)
    duty: float = field(init=False, default=1.0)
    started_at: float = field(init=False, default=0.0)
    done: SimEvent = field(init=False, repr=False)
    _timer: Optional["Timer"] = field(init=False, default=None, repr=False)
    #: ``log(max(op_bytes, 1))``, precomputed — the solver needs it for the
    #: geometric-mean accumulation on every class build.
    log_op: float = field(init=False, default=0.0, repr=False)
    #: ``(kind, remote, resources, self_cap, op_bytes, issue_weight)``:
    #: every solver input but ``duty``, built once — flows of equal shape
    #: and duty are one solver class, and the memo keys on shapes.
    shape: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise SimulationError(f"flow kind must be 'read' or 'write', got {self.kind!r}")
        # Every comparison below (and in the solver) is false for NaN, so a
        # NaN would surface later as a wrong rate or a blamed device.
        isfinite = math.isfinite
        if not (
            isfinite(self.nbytes)
            and isfinite(self.op_bytes)
            and isfinite(self.issue_weight)
            and self.self_cap == self.self_cap
        ):
            raise self._non_finite_input()
        if self.nbytes < 0:
            raise SimulationError(f"flow payload must be non-negative, got {self.nbytes}")
        if self.self_cap <= 0:
            raise SimulationError(f"flow self_cap must be positive, got {self.self_cap}")
        if self.issue_weight <= 0:
            # A non-positive weight would drive the congestion load negative.
            raise SimulationError(
                f"flow {self.label!r}: issue_weight must be positive, "
                f"got {self.issue_weight}"
            )
        if self.op_bytes <= 0:
            self.op_bytes = max(self.nbytes, 1.0)
        self.remaining = float(self.nbytes)
        self.log_op = math.log(max(self.op_bytes, 1.0))
        self.shape = (
            self.kind,
            self.remote,
            self.resources,
            self.self_cap,
            self.op_bytes,
            self.issue_weight,
        )
        self.done = SimEvent(name=f"flow:{self.label}.done")

    def _non_finite_input(self) -> SimulationError:
        """The error naming this flow's first non-finite (or NaN) input."""
        for name in ("nbytes", "op_bytes", "issue_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                return SimulationError(
                    f"flow {self.label!r}: {name} must be finite, got {value}"
                )
        return SimulationError(
            f"flow {self.label!r}: self_cap must not be NaN (inf means unbounded)"
        )


def _build_loads(
    flows: Sequence[Flow], duties: Dict[Flow, float]
) -> Dict[CapacityResource, ResourceLoad]:
    """Accumulate duty-weighted per-resource load statistics."""
    loads: Dict[CapacityResource, ResourceLoad] = {}
    log_sums: Dict[CapacityResource, Dict[str, float]] = {}
    for f in flows:
        weight = max(duties.get(f, 1.0), MIN_DUTY)
        for resource in f.resources:
            load = loads.setdefault(resource, ResourceLoad())
            sums = log_sums.setdefault(resource, {"read": 0.0, "write": 0.0})
            if f.kind == "read":
                if f.remote:
                    load.n_read_remote += weight
                    load.raw_read_remote += 1
                else:
                    load.n_read_local += weight
                    load.raw_read_local += 1
                sums["read"] += weight * f.log_op
            else:
                if f.remote:
                    load.n_write_remote += weight
                    load.raw_write_remote += 1
                    load.congestion_write_remote += min(weight, f.issue_weight)
                else:
                    load.n_write_local += weight
                    load.raw_write_local += 1
                sums["write"] += weight * f.log_op
    for resource, load in loads.items():
        sums = log_sums[resource]
        if load.n_reads > 0:
            load.read_op_bytes = math.exp(sums["read"] / load.n_reads)
        if load.n_writes > 0:
            load.write_op_bytes = math.exp(sums["write"] / load.n_writes)
    return loads


@dataclass
class SolveResult:
    """Converged solver output plus cost/strategy accounting.

    ``loads`` are the solver's final *internal* per-resource loads — the
    ones that produced the converged rates — handed to the network so the
    post-solve ``observe()``/hooks pass no longer rebuilds them.
    """

    rates: Dict[Flow, float]
    iterations: int
    loads: Dict[CapacityResource, ResourceLoad]
    classes: int = 0
    memo_hit: bool = False
    memo_attempted: bool = False
    #: Whether the fixed point met ``RATE_TOLERANCE`` within
    #: ``DUTY_ITERATIONS`` (a memo hit replays the recorded solve's flag).
    converged: bool = True


def resource_share_token(
    resource: CapacityResource, combos: Sequence[Tuple[str, bool]]
) -> object:
    """Memo token covering the share state *resource* exposes to the
    ``(kind, remote)`` combinations in *combos*, or ``None`` when opaque.

    See :meth:`CapacityResource.share_state_token` for the protocol.
    """
    rtype = type(resource)
    if rtype.share_state_token is not CapacityResource.share_state_token:
        parts = []
        for combo in sorted(combos):
            part = resource.share_state_token(combo[0], combo[1])
            if part is None:
                return None
            parts.append((combo, part))
        return tuple(parts)
    if rtype.observe is not CapacityResource.observe:
        # Stateful (it watches loads) but exposes no token: assume the
        # worst and bypass the memo for any set that touches it.
        return None
    return ()


def _memo_key(shapes: tuple, duties: tuple, combos: Dict[CapacityResource, set]):
    """Converged-state memo key, or ``None`` when a path resource is opaque.

    The per-flow ``(shape, duty)`` sequence fixes the class partition, the
    class signatures and the flow-order summation, so with each resource's
    share-state token it determines the whole solve.
    """
    tokens = []
    for r, seen in combos.items():
        token = resource_share_token(r, seen)
        if token is None:
            return None
        tokens.append(token)
    return (shapes, duties, tuple(tokens))


def _nan_share(resource: CapacityResource) -> SimulationError:
    """Error for a NaN ``share()``: ``<`` and ``min`` would silently read
    it as "unconstrained", so both solvers check every share they use."""
    return SimulationError(
        f"share() of {resource.name!r} returned NaN: the rate of every flow "
        "on it would be undefined"
    )


def _solve_reference(flows: Sequence[Flow]) -> SolveResult:
    """Per-flow duty-cycle fixed point — the byte-identity oracle.

    This is the original solver, kept deliberately simple: one rate/duty
    update per *flow* per iteration and a full :func:`_build_loads` pass per
    iteration.  :func:`_solve_classes` must reproduce its results bit for
    bit; the determinism oracle test runs entire campaigns under both and
    compares stores byte-wise.
    """
    duties: Dict[Flow, float] = {f: f.duty for f in flows}
    rates: Dict[Flow, float] = {f: 0.0 for f in flows}
    loads: Dict[CapacityResource, ResourceLoad] = {}
    iterations = 0
    converged = False
    for _ in range(DUTY_ITERATIONS):
        iterations += 1
        loads = _build_loads(flows, duties)
        max_rel_change = 0.0
        for f in flows:
            device_rate = math.inf
            for r in f.resources:
                share = r.share(loads[r], f)
                if share != share:
                    raise _nan_share(r)
                device_rate = min(device_rate, share)
            if math.isinf(device_rate):
                new_rate = f.self_cap
                new_duty = MIN_DUTY if math.isfinite(f.self_cap) else 1.0
            elif math.isinf(f.self_cap):
                new_rate = device_rate
                new_duty = 1.0
            else:
                new_rate = 1.0 / (1.0 / f.self_cap + 1.0 / device_rate)
                # Fraction of wall time spent on the device rather than in
                # per-op software work: u = 1 - A / R_self.
                new_duty = min(1.0, max(MIN_DUTY, 1.0 - new_rate / f.self_cap))
            if math.isinf(new_rate):
                raise SimulationError(
                    f"flow {f.label!r} has unbounded rate: no resource or "
                    "self cap constrains it"
                )
            old_rate = rates[f]
            damped_duty = duties[f] + DUTY_DAMPING * (new_duty - duties[f])
            duties[f] = min(1.0, max(MIN_DUTY, damped_duty))
            rates[f] = new_rate
            denom = max(new_rate, 1.0)
            max_rel_change = max(max_rel_change, abs(new_rate - old_rate) / denom)
        if max_rel_change < RATE_TOLERANCE:
            converged = True
            break
    for f in flows:
        f.duty = duties[f]
    return SolveResult(rates, iterations, loads, converged=converged)


_shape_of = attrgetter("shape")
_duty_of = attrgetter("duty")


def _in_flow_order(cls_of: List[int], classes: List[int], n_classes: int) -> List[int]:
    """The entries of *cls_of* (flow order) whose class is in *classes*."""
    if not classes:
        return []
    if len(classes) == n_classes:
        return cls_of
    chosen = set(classes)
    return [c for c in cls_of if c in chosen]


def _build_plan(flows: Sequence[Flow], shapes: tuple, duties: tuple, resources):
    """Number *flows*' solver classes and lay out one miss's flat plan.

    Classes are numbered by first appearance of ``(shape, duty)``, shapes
    by the first appearance of their first class.  Returns
    ``(cls_of, reps, remote, loads, folds, groups, shape_plans)``:

    * ``cls_of`` — each flow's class, in flow order; ``reps`` — one member
      flow per class; ``remote`` — each class's locality;
    * ``loads`` — one :class:`ResourceLoad` per path resource (in
      *resources* order), raw counts already set;
    * ``folds`` — per path resource, ``(load, reads, writes)``: the class
      of each reading / writing flow on it, in flow order;
    * ``groups`` — ``(bound share, load, rep)`` per (resource,
      :attr:`CapacityResource.share_projector`) key, in creation order;
    * ``shape_plans`` — per shape, ``(index, members, slots, self_cap,
      log_op, issue_weight)``: its classes in class order and its share
      group indices in path order.
    """
    index: Dict[tuple, int] = {}
    cls_of: List[int] = []
    reps: List[Flow] = []
    for f, sig in zip(flows, zip(shapes, duties)):
        c = index.get(sig)
        if c is None:
            c = index[sig] = len(reps)
            reps.append(f)
        cls_of.append(c)
    n_classes = len(reps)
    remote = [rep.remote for rep in reps]
    loads = {r: ResourceLoad() for r in resources}
    # Classes on each path resource: readers, writers.
    members = {r: ([], []) for r in resources}
    groups: List[tuple] = []
    group_index: Dict[tuple, int] = {}
    shape_index: Dict[tuple, int] = {}
    shape_plans: List[tuple] = []
    for c, rep in enumerate(reps):
        writer = rep.kind == "write"
        for r in rep.resources:
            members[r][writer].append(c)
        # Share groups are a function of the shape: classes that differ
        # only in duty reuse one lookup.
        s = shape_index.get(rep.shape)
        if s is not None:
            shape_plans[s][1].append(c)
            continue
        slots = []
        for r in rep.resources:
            gkey = (r, r.share_projector(rep))
            g = group_index.get(gkey)
            if g is None:
                g = group_index[gkey] = len(groups)
                groups.append((r.share, loads[r], rep))
            slots.append(g)
        s = shape_index[rep.shape] = len(shape_plans)
        shape_plans.append(
            (s, [c], tuple(slots), rep.self_cap, rep.log_op, rep.issue_weight)
        )
    folds = []
    for r, (read_classes, write_classes) in members.items():
        reads = _in_flow_order(cls_of, read_classes, n_classes)
        writes = _in_flow_order(cls_of, write_classes, n_classes)
        # Raw (unweighted) counts are duty-independent: set once.
        load = loads[r]
        load.raw_read_remote = sum(map(remote.__getitem__, reads))
        load.raw_read_local = len(reads) - load.raw_read_remote
        load.raw_write_remote = sum(map(remote.__getitem__, writes))
        load.raw_write_local = len(writes) - load.raw_write_remote
        folds.append((load, reads, writes))
    return cls_of, reps, remote, loads, folds, groups, shape_plans


def _solve_classes(
    flows: Sequence[Flow], memo: Optional["OrderedDict"] = None
) -> SolveResult:
    # simlint: hotpath — allocations here multiply by flows × resources ×
    # DUTY_ITERATIONS × recomputes; load fields are overwritten in place.
    """Equivalence-class duty-cycle fixed point with converged-state memo.

    Byte-identity with :func:`_solve_reference` rests on four facts:

    * per-class work uses exactly the arithmetic the reference applies to
      each member — identical operands give identical IEEE-754 results, so
      one evaluation stands for all;
    * per-resource *accumulation* stays in flow-list order.  Floating-point
      addition is order-sensitive, so each load field is a left fold from
      ``0.0`` over the per-class terms of its contributing flows, in flow
      order (see :func:`_build_plan`), never a per-class term × count;
    * ``share()`` is evaluated once per *share group* (resource × declared
      signature projection) per iteration: the share contract makes every
      member class's operands identical, so one call stands for all;
    * the rate update (``new_rate``, ``new_duty``, the unbounded check and
      the convergence term) runs once per *shape* per iteration: classes of
      one shape read the same share groups and the same ``self_cap``, and
      every class starts at rate ``0.0``, so their operands are equal at
      every iteration.  Only the damped duty, which starts from each
      class's own duty, is per class.

    The memo key is the per-flow :attr:`Flow.shape` and duty sequences plus
    each resource's share-state token; a hit replays per-flow rates and
    duties without building a plan.
    """
    shapes = tuple(map(_shape_of, flows))
    duties = tuple(map(_duty_of, flows))
    # Path resources in first-appearance order (it fixes loads-dict order,
    # matching the reference's flow-major insertion order), each with the
    # (kind, remote) combinations present on it.
    combos: Dict[CapacityResource, set] = {}
    for shape in dict.fromkeys(shapes):
        combo = (shape[0], shape[1])
        for r in shape[2]:
            seen = combos.get(r)
            if seen is None:
                combos[r] = {combo}
            else:
                seen.add(combo)

    key = None
    if memo is not None:
        key = _memo_key(shapes, duties, combos)
        entry = memo.get(key) if key is not None else None
        if entry is not None:
            memo.move_to_end(key)
            flow_rates, flow_duties, n_classes, iterations, loads, converged = entry
            for f, duty in zip(flows, flow_duties):
                f.duty = duty
            return SolveResult(
                dict(zip(flows, flow_rates)),
                iterations,
                loads,
                classes=n_classes,
                memo_hit=True,
                memo_attempted=True,
                converged=converged,
            )

    cls_of, reps, remote, loads, folds, groups, shape_plans = _build_plan(
        flows, shapes, duties, combos
    )
    n_classes = len(reps)
    cls_duty = [rep.duty for rep in reps]
    shape_rate = [0.0] * len(shape_plans)
    # Per-class load terms, refreshed in place as each class's duty moves
    # (a damped duty is already clamped, so it *is* the next weight).
    weights = [MIN_DUTY if d < MIN_DUTY else d for d in cls_duty]
    terms = [w * rep.log_op for w, rep in zip(weights, reps)]
    congestion = [
        w if w < rep.issue_weight else rep.issue_weight
        for w, rep in zip(weights, reps)
    ]
    exp = math.exp
    inf = math.inf
    iterations = 0
    converged = False
    for _ in range(DUTY_ITERATIONS):
        iterations += 1
        # Each load field is a left fold from 0.0 over its flows in flow
        # order, as the reference accumulates it.
        for load, reads, writes in folds:
            if reads:
                local = far = log = 0.0
                for c in reads:
                    if remote[c]:
                        far += weights[c]
                    else:
                        local += weights[c]
                    log += terms[c]
                load.n_read_local = local
                load.n_read_remote = far
                if local + far > 0:
                    load.read_op_bytes = exp(log / (local + far))
            if writes:
                local = far = congested = log = 0.0
                for c in writes:
                    if remote[c]:
                        far += weights[c]
                        congested += congestion[c]
                    else:
                        local += weights[c]
                    log += terms[c]
                load.n_write_local = local
                load.n_write_remote = far
                load.congestion_write_remote = congested
                if local + far > 0:
                    load.write_op_bytes = exp(log / (local + far))
        shares = [share(load, rep) for share, load, rep in groups]
        max_rel_change = 0.0
        for s, members, slots, self_cap, log_op, issue in shape_plans:
            device_rate = inf
            for g in slots:
                rate = shares[g]
                if rate < device_rate:
                    device_rate = rate
                elif rate != rate:
                    raise _nan_share(groups[g][0].__self__)
            if device_rate == inf:
                new_rate = self_cap
                new_duty = 1.0 if self_cap == inf else MIN_DUTY
            elif self_cap == inf:
                new_rate = device_rate
                new_duty = 1.0
            else:
                new_rate = 1.0 / (1.0 / self_cap + 1.0 / device_rate)
                new_duty = 1.0 - new_rate / self_cap
                if new_duty < MIN_DUTY:
                    new_duty = MIN_DUTY
                elif new_duty > 1.0:
                    new_duty = 1.0
            if new_rate == inf:
                raise SimulationError(
                    f"flow {reps[members[0]].label!r} has unbounded rate: no "
                    "resource or self cap constrains it"
                )
            for c in members:
                old_duty = cls_duty[c]
                duty = old_duty + DUTY_DAMPING * (new_duty - old_duty)
                if duty < MIN_DUTY:
                    duty = MIN_DUTY
                elif duty > 1.0:
                    duty = 1.0
                cls_duty[c] = weights[c] = duty
                terms[c] = duty * log_op
                congestion[c] = duty if duty < issue else issue
            rel = new_rate - shape_rate[s]
            shape_rate[s] = new_rate
            if rel < 0.0:
                rel = -rel
            rel /= new_rate if new_rate > 1.0 else 1.0
            if rel > max_rel_change:
                max_rel_change = rel
        if max_rel_change < RATE_TOLERANCE:
            converged = True
            break
    cls_rate = [0.0] * n_classes
    for s, members, *_ in shape_plans:
        for c in members:
            cls_rate[c] = shape_rate[s]
    flow_rates = tuple(map(cls_rate.__getitem__, cls_of))
    flow_duties = tuple(map(cls_duty.__getitem__, cls_of))
    for f, duty in zip(flows, flow_duties):
        f.duty = duty
    if key is not None:
        # ``converged`` stays last: tests rewrite it to replay a capped solve.
        memo[key] = (
            flow_rates,
            flow_duties,
            n_classes,
            iterations,
            loads,
            converged,
        )
        if len(memo) > MEMO_CAPACITY:
            memo.popitem(last=False)
    return SolveResult(
        dict(zip(flows, flow_rates)),
        iterations,
        loads,
        classes=n_classes,
        memo_attempted=key is not None,
        converged=converged,
    )


def solve_flow_set(
    flows: Sequence[Flow],
    solver: Optional[str] = None,
    memo: Optional["OrderedDict"] = None,
) -> SolveResult:
    """Solve the processor-sharing duty-cycle fixed point for *flows*.

    Stores the converged duty cycle on each flow and returns a
    :class:`SolveResult` with rates, iteration count, and the solver's final
    internal loads.  *solver* selects the implementation (``"fast"`` /
    ``"reference"``; default from the ``REPRO_SOLVER`` environment
    variable, else ``fast``); *memo* is the fast solver's converged-state
    LRU (``None`` disables memoization).  Both implementations produce
    byte-identical results for any flow set honouring the
    :meth:`CapacityResource.share` contract.
    """
    if not flows:
        return SolveResult({}, 0, {})
    if solver is None:
        solver = default_solver()
    if solver == SOLVER_FAST:
        return _solve_classes(flows, memo)
    if solver == SOLVER_REFERENCE:
        return _solve_reference(flows)
    raise _unknown_solver(solver)


def _unknown_solver(solver: str) -> SimulationError:
    return SimulationError(
        f"unknown solver {solver!r} (env {SOLVER_ENV}); choices: "
        f"{SOLVER_FAST!r}, {SOLVER_REFERENCE!r}"
    )


def solve_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Solve the fixed point for *flows*; returns achieved rates ``A_f``.

    Pure function of the flow set — exposed at module level so tests and
    the analytic cross-check can call it without an engine.
    """
    return solve_flow_set(flows).rates


class FlowNetwork:
    """Tracks active flows and keeps their rates consistent as load changes.

    The network is lazy: rates are recomputed only when a flow starts or
    finishes.  Between recomputations every flow progresses linearly at its
    assigned rate, so completions can be scheduled exactly.

    Completion recomputations are additionally *coalesced*: flow finishes
    (and idle transitions) at the same virtual timestamp mark the network
    dirty, and one solve runs via the engine's flush hook just before the
    clock advances — 24 ranks finishing identical writes in one instant
    cost one solve, not 24.  Flow bookkeeping (``active_flows``, progress
    advancement) stays synchronous; only the fixed-point solve is deferred.

    Flow *starts* deliberately keep solving synchronously, coalescing only
    an already-pending completion flush.  The congestion model's damped
    fixed point is bistable (remote-write collapse): starting N flows one
    solve at a time warm-starts duties down the uncongested branch, while
    one cold solve of N fresh flows at duty 1.0 can land on the collapsed
    branch — a simulated-result change of tens of percent, not rounding.
    The start cascade is therefore part of the model.  Completions are
    coalesced, and that does move simulated results beyond solver
    tolerance on some paper cells; DESIGN.md §5b gives the measured drift
    and its cause.

    Parameters
    ----------
    engine:
        The discrete-event engine whose clock and flush hooks drive the
        network.
    solver:
        ``"fast"`` (equivalence classes + memo, the default) or
        ``"reference"`` (per-flow oracle).  Defaults from ``REPRO_SOLVER``.
        Coalescing is applied identically under both solvers, so the
        fast-vs-reference oracle compares like with like.
    """

    solver_components_skipped = 0  # retired; perfbench/tracing.py still reads it
    vector_batches = 0  # retired; perfbench/tracing.py still reads it

    def __init__(
        self,
        engine: "Engine",
        solver: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self._flows: List[Flow] = []
        self._last_update: float = 0.0
        self.recompute_count: int = 0
        self.flows_completed: int = 0
        self.solver_iterations: int = 0
        #: Equivalence classes summed over recomputes (fast solver).
        self.solver_classes: int = 0
        #: Converged-state memo hits/misses (fast solver; a bypassed memo —
        #: opaque stateful resource on the path — counts as neither).
        self.memo_hits: int = 0
        self.memo_misses: int = 0
        #: Recompute requests absorbed into an already-pending flush.
        self.recomputes_coalesced: int = 0
        #: Solves that used all ``DUTY_ITERATIONS`` without meeting
        #: ``RATE_TOLERANCE`` (memo hits replay the recorded solve's flag).
        self.solves_at_cap: int = 0
        self._observed_resources: set = set()
        #: Optional observability adapter (see :mod:`repro.obs.hooks`);
        #: ``None`` keeps the solver path free of instrumentation cost.
        self.hooks: Optional[object] = None
        if solver is None:
            solver = default_solver()
        if solver not in (SOLVER_FAST, SOLVER_REFERENCE):
            raise _unknown_solver(solver)
        self.solver = solver
        self._memo: "OrderedDict" = OrderedDict()
        self._dirty = False
        #: Set when a solve cancelled completion timers; the flush
        #: re-schedules one timer per affected flow.
        self._timers_stale = False
        engine.add_flush_hook(self._flush_recompute)

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> Tuple[Flow, ...]:
        return tuple(self._flows)

    def transfer(self, flow: Flow) -> SimEvent:
        """Start *flow*; returns an event that succeeds on completion.

        Zero-byte flows complete immediately (software-overhead-only
        operations are charged by the storage stack before the flow starts).
        """
        if flow.done.triggered:
            raise SimulationError(f"flow {flow.label!r} reused after completion")
        flow.started_at = self.engine.now
        if flow.remaining <= COMPLETION_EPSILON_BYTES:
            flow.done.succeed(flow)
            return flow.done
        self._advance_progress()
        self._flows.append(flow)
        # Starts solve synchronously (see class docstring) — but one solve
        # serves both this start and any pending completion flush.
        if self._dirty:
            self._dirty = False
            self.recomputes_coalesced += 1
        self._recompute()
        return flow.done

    def poke(self, *resources: CapacityResource) -> None:
        """Force a rate recomputation after external resource-state changes.

        Used when something other than a flow start/finish alters resource
        behaviour (e.g. a blocked reader registering as a metadata poller,
        or a closure captured by a ``capacity_fn`` mutating).  The solve is
        deferred to the end-of-timestamp flush like a completion: no
        virtual time passes before the flush runs, so in-flight progress is
        unaffected, and a burst of same-instant pokes (16 readers blocking
        on one publish) costs one solve instead of sixteen.

        Naming the changed *resources* keeps the converged-state memo:
        resources that participate in the share-token protocol expose the
        state the memo key depends on, so a stale entry can never match.
        A token-less resource (state hidden in a ``capacity_fn`` closure)
        cannot be reasoned about, so the memo is flushed; a bare ``poke()``
        flushes it too.
        """
        if not resources or any(
            type(r).share_state_token is CapacityResource.share_state_token
            for r in resources
        ):
            self._memo.clear()
        self._advance_progress()
        self._request_recompute()

    # ------------------------------------------------------------------
    def _request_recompute(self) -> None:
        """Mark dirty for the end-of-timestamp flush (completions/idle)."""
        if self._dirty:
            self.recomputes_coalesced += 1
        else:
            self._dirty = True

    def _flush_recompute(self) -> bool:
        """Engine flush hook: run the one deferred solve for this instant.

        With epsilon-batched dispatch the flush may run a few ulps after
        the completions that marked the network dirty, so progress is
        advanced explicitly before solving.  Completion timers parked by
        deferred solves are scheduled here, after the solve, so each
        active flow pushes one timer per instant however many cascade
        solves touched its rate.
        """
        ran = False
        if self._dirty:
            self._dirty = False
            self._advance_progress()
            self._recompute()
            ran = True
        if self._timers_stale and self._flush_timers():
            ran = True
        return ran

    def _advance_progress(self) -> None:
        """Apply linear progress at current rates since the last update."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
        self._last_update = now

    def _recompute(self) -> None:
        """Re-solve rates for the current flow set and reschedule completions."""
        self.recompute_count += 1
        now = self.engine.now
        flows = self._flows
        loads: Dict[CapacityResource, ResourceLoad] = {}
        iterations = 0
        rates: Dict[Flow, float] = {}
        if flows:
            # A module-global call, so wrappers of solve_flow_set (the
            # benchmark's per-layer tracer) see every solve.
            result = solve_flow_set(
                flows,
                solver=self.solver,
                memo=self._memo if self.solver == SOLVER_FAST else None,
            )
            iterations = result.iterations
            loads = result.loads
            rates = result.rates
            self.solver_iterations += iterations
            self.solver_classes += result.classes
            if result.memo_attempted:
                if result.memo_hit:
                    self.memo_hits += 1
                else:
                    self.memo_misses += 1
            if not result.converged:
                self.solves_at_cap += 1
        # Let stateful resources (congestion EWMAs) see the converged load.
        # Resources that just went idle observe an explicitly empty load so
        # their state can decay.
        for resource in self._observed_resources - loads.keys():
            resource.observe(now, ResourceLoad())
        for resource, load in loads.items():
            resource.observe(now, load)
        self._observed_resources = set(loads)
        for flow in flows:
            new_rate = rates[flow]
            if (
                new_rate == flow.rate
                and flow._timer is not None
                and not flow._timer.cancelled
            ):
                # Rate unchanged (bit-exact, e.g. a memo replay): the
                # pending completion timer is still correct — skipping the
                # cancel/reschedule churn keeps the heap small.
                continue
            flow.rate = new_rate
            if flow._timer is not None:
                flow._timer.cancel()
                flow._timer = None
            if new_rate <= 0 and flow.remaining > COMPLETION_EPSILON_BYTES:
                raise SimulationError(
                    f"flow {flow.label!r} stalled with zero rate and "
                    f"{flow.remaining:.0f} bytes remaining"
                )
            # Completion timers are (re)scheduled once per instant at the
            # flush: intermediate cascade solves at the same timestamp
            # would otherwise push a timer per flow per solve onto the
            # heap only to cancel it microseconds later.  No virtual time
            # passes before the flush, so the absolute fire times are
            # unchanged.
            self._timers_stale = True
        if self.hooks is not None:
            # After the rates are assigned, so hooks see the converged state.
            self.hooks.on_recompute(now, flows, loads)
            self.hooks.on_solve(now, iterations)

    def _flush_timers(self) -> bool:
        """Schedule completion timers left stale by this instant's solves.

        Runs in ``self._flows`` order so heap tie-breaking (and therefore
        same-instant completion order) stays deterministic.
        """
        self._timers_stale = False
        scheduled = False
        for flow in self._flows:
            timer = flow._timer
            if timer is None or timer.cancelled:
                # A zero rate means (epsilon-)zero remaining: complete now.
                eta = flow.remaining / flow.rate if flow.rate > 0 else 0.0
                flow._timer = self.engine.schedule(eta, self._make_completion(flow))
                scheduled = True
        return scheduled

    def _make_completion(self, flow: Flow) -> Callable[[], None]:
        def _complete() -> None:
            self._advance_progress()
            if flow.remaining > COMPLETION_EPSILON_BYTES:  # pragma: no cover
                raise SimulationError(
                    f"flow {flow.label!r} completion fired early "
                    f"({flow.remaining:.0f} bytes left)"
                )
            flow.remaining = 0.0
            flow.rate = 0.0
            self._flows.remove(flow)
            self.flows_completed += 1
            if self.hooks is not None:
                self.hooks.on_flow_complete(self.engine.now, flow)
            flow.done.succeed(flow)
            # Recompute even when no flows remain so stateful resources
            # observe the transition to idle.
            self._request_recompute()

        return _complete
