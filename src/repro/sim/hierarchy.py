"""The three-level cache hierarchy and LLC stream extraction.

The paper's machine (Section VI-A): 32KB 8-way L1D, 256KB 8-way unified L2,
2MB/core 16-way L3, modeled after an Intel Core i7 (Nehalem).  The L1 and
L2 use LRU and are identical across all evaluated techniques -- only the
LLC policy varies -- so we simulate L1+L2 **once** per workload and record
which references reach the LLC.  Every technique then replays that same
LLC stream, exactly as the paper's optimal-policy methodology does
("trace-based simulation ... using the same sequence of memory accesses
made by the out-of-order simulator", Section VI-B).

This filtering step is not an optimization detail; it is the phenomenon
behind the paper's headline negative result for reftrace: "a moderately-
sized mid-level cache filters out most of the temporal locality"
(Section I), leaving sparse, unrepeatable traces at the LLC.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.cache.cache import CacheAccess
from repro.cache.geometry import CacheGeometry
from repro.core.predictor import PAPER_SHAPE, PredictorShape
from repro.sim.trace import DEPENDS_BIT, WRITE_BIT, Trace

__all__ = [
    "BUILDS",
    "FilteredTrace",
    "HierarchyFilter",
    "MachineConfig",
    "PreparedStream",
    "TimingPlan",
    "decompose",
    "prepare_stream",
]

#: Hit-level codes stored per trace record.
L1_HIT, L2_HIT, LLC_LEVEL = 1, 2, 3

#: How many of each cached per-workload structure this process has
#: built: a stream's ``replay_index`` and ``prediction_plane`` and a
#: trace's ``timing_plan``.  Each is built on first use and reused by
#: every later technique; a sweep cell's timing record carries the
#: builds it caused (:func:`repro.harness.parallel._cell_timing`).
BUILDS: Dict[str, int] = dict.fromkeys(
    ("replay_index", "prediction_plane", "timing_plan"), 0
)


@dataclass(frozen=True)
class MachineConfig:
    """The simulated machine (paper Section VI-A, Nehalem-like).

    ``scale`` divides every cache capacity, keeping associativity and block
    size -- Python-speed runs use scale 8 while preserving the working-set
    to cache ratios (workloads size themselves relative to ``llc``).

    The latencies must satisfy ``l1_latency <= l2_latency < llc_latency <=
    memory_latency``: every LLC-bound operation then outlasts every L1/L2
    hit whether it hits or misses, which is what lets a
    :class:`TimingPlan` be built once per workload.
    """

    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8, 64)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, 8, 64)
    )
    llc: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(2 * 1024 * 1024, 16, 64)
    )
    # Latencies in cycles, measured from issue (L1 hits are covered by the
    # pipeline and cost the base cycle only).
    l1_latency: int = 1
    l2_latency: int = 10
    llc_latency: int = 30
    memory_latency: int = 200
    # Core: 4-wide, 128-entry instruction window, 8-stage pipeline.
    width: int = 4
    window: int = 128

    def __post_init__(self) -> None:
        checks = (
            ("l1_latency", self.l1_latency <= self.l2_latency,
             f"must be <= l2_latency ({self.l2_latency})"),
            ("llc_latency", self.llc_latency > self.l2_latency,
             f"must be > l2_latency ({self.l2_latency})"),
            ("memory_latency", self.memory_latency >= self.llc_latency,
             f"must be >= llc_latency ({self.llc_latency})"),
            ("width", self.width >= 1, "must be >= 1"),
            ("window", self.window >= 1, "must be >= 1"),
        )
        for name, holds, requirement in checks:
            if not holds:
                raise ValueError(
                    f"MachineConfig.{name} {requirement}, got {getattr(self, name)}"
                )

    def scaled(self, factor: int) -> "MachineConfig":
        """Shrink every cache by ``factor`` (latencies/width unchanged)."""
        return replace(
            self,
            l1=self.l1.scaled(factor),
            l2=self.l2.scaled(factor),
            llc=self.llc.scaled(factor),
        )

    def shared_llc(self, num_cores: int) -> CacheGeometry:
        """LLC geometry for ``num_cores`` sharing it (paper: 2MB/core)."""
        return CacheGeometry(
            self.llc.size_bytes * num_cores,
            self.llc.associativity,
            self.llc.block_bytes,
        )

    def latency_for_level(self, level: int, llc_hit: bool) -> int:
        """Total load-to-use latency for a record's resolved hit level."""
        if level == L1_HIT:
            return self.l1_latency
        if level == L2_HIT:
            return self.l2_latency
        return self.llc_latency if llc_hit else self.memory_latency


def decompose(
    addresses: Sequence[int], geometry: CacheGeometry
) -> Tuple[List[int], List[int]]:
    """Split byte addresses into ``(set_indices, tags)`` for ``geometry``.

    The one place the LLC address split is computed: every
    :class:`PreparedStream` -- a workload's stream, a merged multicore
    stream, a test's hand-built stream -- is decomposed here.
    """
    offset_bits = geometry.offset_bits
    index_bits = geometry.index_bits
    index_mask = geometry.num_sets - 1
    blocks = [address >> offset_bits for address in addresses]
    return (
        [block & index_mask for block in blocks],
        [block >> index_bits for block in blocks],
    )


class PreparedStream:
    """An LLC access stream, decomposed for one geometry: the one input
    every replay (:func:`repro.sim.replay.replay`) takes.

    Struct-of-arrays layout: position ``i`` of every column describes
    the same LLC access -- its byte ``addresses``, ``pcs``, ``writes``,
    issuing ``cores`` and the precomputed ``(set_indices, tags)``
    for the geometry -- so a replay kernel walks columns instead of
    re-deriving anything from the byte address once per technique.

    The :class:`~repro.cache.cache.CacheAccess` objects the object
    kernel, observers and the load simulator consume are built from the
    columns on first use of :attr:`accesses` and cached; the array
    kernels never ask for them.  Every access's ``seq`` is its stream
    position -- an invariant of every stream, hand-wrapped ones
    included (:meth:`from_accesses` enforces it), which the optimal
    policy and the array kernels' block materialization rely on.  The
    access objects are safe to share across techniques: no policy or
    predictor mutates them.
    """

    __slots__ = (
        "_accesses",
        "_prediction_plane",
        "_replay_index",
        "addresses",
        "cores",
        "pcs",
        "set_indices",
        "tags",
        "writes",
    )

    def __init__(
        self,
        addresses: Sequence[int],
        pcs: Sequence[int],
        writes: Sequence[bool],
        set_indices: List[int],
        tags: List[int],
        cores: Union[int, Sequence[int]] = 0,
    ) -> None:
        """``cores`` is one core id for the whole stream or a column."""
        self.addresses = addresses
        self.pcs = pcs
        self.writes = writes
        self.set_indices = set_indices
        self.tags = tags
        self.cores = cores
        self._accesses: Optional[List[CacheAccess]] = None
        self._replay_index = None
        self._prediction_plane = None

    @classmethod
    def from_accesses(
        cls, accesses: List[CacheAccess], geometry: CacheGeometry
    ) -> "PreparedStream":
        """Wrap an existing access list, decomposed for ``geometry``.

        The list is kept as :attr:`accesses`.

        Raises:
            ValueError: an access's ``seq`` is not its position in the
                list (the stream-position invariant).
        """
        for position, access in enumerate(accesses):
            if access.seq != position:
                raise ValueError(
                    f"access at position {position} has seq {access.seq}; "
                    "a stream's seq numbers must be its positions 0..n-1"
                )
        addresses = [access.address for access in accesses]
        stream = cls(
            addresses,
            [access.pc for access in accesses],
            [access.is_write for access in accesses],
            *decompose(addresses, geometry),
            cores=[access.core for access in accesses],
        )
        stream._accesses = accesses
        return stream

    @property
    def accesses(self) -> List[CacheAccess]:
        """One :class:`~repro.cache.cache.CacheAccess` per position, with
        ``seq`` = position; built from the columns on first use."""
        accesses = self._accesses
        if accesses is None:
            count = len(self.tags)
            cores = self.cores
            if isinstance(cores, int):
                cores = repeat(cores, count)
            # map() drives CacheAccess construction at C speed.
            accesses = list(
                map(
                    CacheAccess,
                    self.addresses,
                    self.pcs,
                    self.writes,
                    range(count),
                    cores,
                )
            )
            self._accesses = accesses
        return accesses

    def __len__(self) -> int:
        return len(self.tags)

    def replay_index(self, num_sets: int):
        """The stream's :class:`~repro.cache.soa.ReplayIndex`, built on
        first use and cached.  A PreparedStream is per-geometry, so one
        cached index serves every technique of a sweep -- the same
        amortization contract as the ``(set_index, tag)`` decomposition.
        """
        index = self._replay_index
        if index is None or index.num_sets != num_sets:
            from repro.cache.soa import ReplayIndex

            index = ReplayIndex.build(
                self.set_indices, self.tags, self.writes, num_sets
            )
            BUILDS["replay_index"] += 1
            self._replay_index = index
        return index

    def prediction_plane(self, num_sets: int, shape: PredictorShape = PAPER_SHAPE):
        """The stream's :class:`~repro.cache.soa.PredictionPlane` for a
        predictor ``shape``, cached in one slot that a new ``(num_sets,
        shape)`` replaces -- the sampler-side analog of
        :meth:`replay_index`.  It serves every DBRB technique of that
        shape (``sampler`` and ``random_sampler`` at the paper's; Figure
        6 and the design sweeps at theirs); cells run workload-major, so
        a sweep builds each shape once per workload.
        """
        plane = self._prediction_plane
        if plane is None or plane.num_llc_sets != num_sets or plane.shape != shape:
            from repro.cache.soa import PredictionPlane

            plane = PredictionPlane.build(
                self.pcs, self.set_indices, self.tags, num_sets, shape
            )
            BUILDS["prediction_plane"] += 1
            self._prediction_plane = plane
        return plane

    def __repr__(self) -> str:
        return f"PreparedStream({len(self.tags)} LLC accesses)"


class TimingPlan(NamedTuple):
    """Everything the core timing model needs from one workload except
    the LLC hit vector, as flat columns (position ``i`` = trace record
    ``i``).

    Built once per workload and core shape (:meth:`FilteredTrace.timing_plan`)
    and shared by every technique timed on it.  Two facts make that
    possible.  Under :class:`MachineConfig`'s latency order an operation
    enters the in-flight window exactly when it reaches the LLC, hit or
    miss.  And an in-flight operation retires once the instruction
    position has moved more than ``window`` past its own, which depends
    on the gaps alone.  So the retire schedule is fixed before the
    replay; only the completion cycles of the retired operations, and
    hence the stall they cause, depend on the hit vector.

    Attributes:
        gap_width: ``gap / width`` per record, the issue-cycle advance
            of its non-memory instructions.
        depends: 1 where the record depends on the previous load.
        latencies: resolved L1/L2-hit latency, ``-1`` for LLC-bound
            records.
        pop_hi: before record ``i`` issues, every LLC-bound operation
            with ordinal below ``pop_hi[i]`` has retired from the window.
    """

    gap_width: array
    depends: bytes
    latencies: Sequence[int]
    pop_hi: array

    @classmethod
    def build(
        cls,
        gaps: Sequence[int],
        depends: bytes,
        latencies: Sequence[int],
        width: int,
        window: int,
    ) -> "TimingPlan":
        """Derive the plan from per-record gaps, dependence flags and
        fixed latencies.  The retire schedule replays the core model's
        window check on instruction positions alone."""
        pop_hi: List[int] = []
        record_retired = pop_hi.append
        # Instruction position past which each in-flight LLC operation
        # has left the window, oldest first.
        in_flight: deque = deque()
        retire = in_flight.popleft
        enter = in_flight.append
        retired = 0
        position = 0
        for gap, latency in zip(gaps, latencies):
            position += gap + 1
            while in_flight and in_flight[0] < position:
                retire()
                retired += 1
            record_retired(retired)
            if latency < 0:
                enter(position + window)
        return cls(
            array("d", [gap / width for gap in gaps]),
            depends,
            latencies,
            array("q", pop_hi),
        )


def prepare_stream(
    llc_arrays: Tuple[Sequence[int], Sequence[int], Sequence[bool]],
    geometry: CacheGeometry,
    address_offset: int = 0,
    core: int = 0,
    set_indices: Optional[List[int]] = None,
    tags: Optional[List[int]] = None,
) -> PreparedStream:
    """A :class:`PreparedStream` over LLC ``(pcs, addresses, writes)``
    columns.

    ``address_offset`` and ``core`` relocate the stream into one core's
    or tenant's address range (the load simulator's private tenant
    streams).  ``set_indices`` / ``tags`` may be supplied when the
    decomposition for ``geometry`` was already computed elsewhere (the
    compiled workload store persists them); otherwise :func:`decompose`
    derives them from the addresses.  No access object is built here.
    """
    pcs, addresses, writes = llc_arrays
    if address_offset:
        addresses = [address + address_offset for address in addresses]
    if set_indices is None:
        set_indices, tags = decompose(addresses, geometry)
    return PreparedStream(addresses, pcs, writes, set_indices, tags, core)


class FilteredTrace:
    """A trace plus its L1/L2 filtering results.

    Attributes:
        trace: the original workload trace.
        levels: per-record hit level (1 = L1 hit, 2 = L2 hit, 3 = the
            reference reached the LLC; its final latency depends on the
            LLC policy under test).
        llc_indices: positions in the trace of LLC-bound accesses.

    The paper's methodology simulates L1+L2 once and replays the LLC
    stream once per technique, so everything derivable from the filtering
    alone is precomputed here exactly once per workload and shared:
    struct-of-arrays views of the LLC stream (:meth:`llc_arrays`),
    per-geometry ``(set_index, tag)`` decompositions (:meth:`llc_stream`),
    per-record resolved latencies for the L1/L2 hits
    (:meth:`fixed_latencies`), and the core model's per-shape
    :class:`TimingPlan` (:meth:`timing_plan`).
    """

    __slots__ = (
        "_latencies",
        "_llc_arrays",
        "_plans",
        "_streams",
        "levels",
        "llc_indices",
        "trace",
    )

    def __init__(self, trace: Trace, levels: List[int], llc_indices: List[int]) -> None:
        self.trace = trace
        self.levels = levels
        self.llc_indices = llc_indices
        self._llc_arrays: Optional[Tuple[List[int], List[int], List[bool]]] = None
        self._streams: Dict[Tuple[int, int], PreparedStream] = {}
        self._latencies: Dict[Tuple[int, int], List[int]] = {}
        self._plans: Dict[Tuple[int, int, int, int], TimingPlan] = {}

    # ------------------------------------------------------------------
    # precomputed views (built once per workload, shared by techniques)
    # ------------------------------------------------------------------
    def llc_arrays(self) -> Tuple[List[int], List[int], List[bool]]:
        """The LLC stream as parallel ``(pcs, addresses, writes)`` lists.

        Gathered from the trace columns at the LLC-bound positions (at C
        speed, no per-record object); geometry-independent; computed on
        first use and cached.
        """
        if self._llc_arrays is None:
            trace = self.trace
            indices = self.llc_indices
            flags = bytes(map(trace.flags.__getitem__, indices))
            self._llc_arrays = (
                list(map(trace.pcs.__getitem__, indices)),
                list(map(trace.addresses.__getitem__, indices)),
                list(map(bool, flags.translate(WRITE_BIT))),
            )
        return self._llc_arrays

    def llc_stream(self, geometry: CacheGeometry) -> PreparedStream:
        """The LLC stream prepared for ``geometry`` (cached per geometry
        and shared by every technique replayed on it)."""
        key = (geometry.offset_bits, geometry.index_bits)
        stream = self._streams.get(key)
        if stream is None:
            stream = prepare_stream(self.llc_arrays(), geometry)
            self._streams[key] = stream
        return stream

    def fixed_latencies(self, l1_latency: int, l2_latency: int) -> List[int]:
        """Per-record resolved latency for L1/L2 hits; ``-1`` marks records
        that reach the LLC (their latency depends on the policy under
        test).  Cached, so the timing model's per-record level branching is
        paid once per workload rather than once per technique."""
        key = (l1_latency, l2_latency)
        latencies = self._latencies.get(key)
        if latencies is None:
            lookup = {L1_HIT: l1_latency, L2_HIT: l2_latency, LLC_LEVEL: -1}
            latencies = [lookup[level] for level in self.levels]
            self._latencies[key] = latencies
        return latencies

    def timing_plan(self, config: MachineConfig) -> TimingPlan:
        """The core model's :class:`TimingPlan` for ``config``'s core
        shape and L1/L2 latencies, built on first use and cached."""
        key = (config.width, config.window, config.l1_latency, config.l2_latency)
        plan = self._plans.get(key)
        if plan is None:
            plan = TimingPlan.build(
                *self._timing_columns(config.l1_latency, config.l2_latency),
                config.width,
                config.window,
            )
            BUILDS["timing_plan"] += 1
            self._plans[key] = plan
        return plan

    def _timing_columns(
        self, l1_latency: int, l2_latency: int
    ) -> Tuple[Sequence[int], bytes, Sequence[int]]:
        """Per-record ``(gaps, depends flags, fixed latencies)``, read
        straight from the trace columns."""
        trace = self.trace
        return (
            trace.gaps,
            bytes(trace.flags).translate(DEPENDS_BIT),
            self.fixed_latencies(l1_latency, l2_latency),
        )

    @property
    def name(self) -> str:
        return self.trace.name

    @property
    def instructions(self) -> int:
        return self.trace.instructions

    def filter_ratio(self) -> float:
        """Fraction of memory references the L1/L2 absorbed."""
        if not self.levels:
            return 0.0
        return 1.0 - len(self.llc_indices) / len(self.levels)

    def __repr__(self) -> str:
        return (
            f"FilteredTrace({self.name!r}, {len(self.levels)} refs, "
            f"{len(self.llc_indices)} reach the LLC)"
        )


class HierarchyFilter:
    """Runs a trace through L1D and L2, recording what reaches the LLC."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    def filter(self, trace: Trace) -> FilteredTrace:
        """Simulate L1 and L2 once; return the annotated trace.

        Both levels allocate on miss (write-allocate); writeback traffic is
        not modeled, matching the paper's demand-miss accounting.
        """
        # Both levels are inlined into one loop: per-set MRU-first lists
        # of full block addresses (exact, no tag aliasing), an order of
        # magnitude faster than the policy-driven :class:`repro.cache.Cache`
        # -- which matters because the L1 sees every reference.
        l1, l2 = self.config.l1, self.config.l2
        l1_shift, l1_mask, l1_assoc = l1.offset_bits, l1.num_sets - 1, l1.associativity
        l2_shift, l2_mask, l2_assoc = l2.offset_bits, l2.num_sets - 1, l2.associativity
        l1_sets: List[List[int]] = [[] for _ in range(l1.num_sets)]
        l2_sets: List[List[int]] = [[] for _ in range(l2.num_sets)]
        levels: List[int] = []
        llc_indices: List[int] = []
        append_level = levels.append
        append_llc = llc_indices.append
        for index, address in enumerate(trace.addresses):
            block = address >> l1_shift
            bucket = l1_sets[block & l1_mask]
            if block in bucket:
                if bucket[0] != block:
                    bucket.remove(block)
                    bucket.insert(0, block)
                append_level(L1_HIT)
                continue
            bucket.insert(0, block)
            if len(bucket) > l1_assoc:
                bucket.pop()
            block = address >> l2_shift
            bucket = l2_sets[block & l2_mask]
            if block in bucket:
                if bucket[0] != block:
                    bucket.remove(block)
                    bucket.insert(0, block)
                append_level(L2_HIT)
                continue
            bucket.insert(0, block)
            if len(bucket) > l2_assoc:
                bucket.pop()
            append_level(LLC_LEVEL)
            append_llc(index)
        return FilteredTrace(trace, levels, llc_indices)
