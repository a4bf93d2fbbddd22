"""Parameterized traffic-pattern workload families.

The 29 suite benchmarks model *specific programs*; this module opens the
workload space along explicit axes instead: Zipfian skew, hotspot
concentration, burstiness, stream count, and uniform-random pressure,
plus a :func:`compose` combinator for phased or blended mixtures.  Every
family is a :class:`~repro.workloads.base.WorkloadGenerator` whose full
parameterization is carried by an explicit, hashable **spec string** --
``zipf(a=1.2,seed=7)`` -- which doubles as the workload's *name*
throughout the system: checkpoint cell keys, stream-store keys, service
job specs, and fleet leases all treat the spec as an opaque benchmark
name, so parameterized instances flow end-to-end with zero
special-casing.

Spec grammar::

    spec   := family | family "(" args ")"
    args   := arg ("," arg)*
    arg    := key "=" value | spec          (positional specs: compose)
    value  := int | float | bool | ratio | bare-word
    ratio  := number (":" number)+          (e.g. weights=2:1)

Omitted parameters take the family defaults; :meth:`PatternWorkload.spec`
renders the **canonical** form with *every* parameter explicit (defaults
filled, declaration order, seed last), so two textual variants of one
workload -- ``zipf(a=1.2)`` and ``zipf(seed=1,a=1.2)`` -- share one
canonical spec, one spec digest, and therefore one compiled-stream blob.
The digest also shifts whenever a family's *default* changes, which is
exactly what must invalidate previously stored streams.

Families registered here: ``zipf``, ``hotspot``, ``bursty``, ``seq``,
``uniform``, ``phased``, ``blend``; :mod:`repro.workloads.replay` adds
``trace`` (external trace replay).  See docs/workloads.md for the
catalog and the predictor-relevant statistics of each family.
"""

from __future__ import annotations

import bisect
import difflib
import hashlib
import re
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.trace import Trace
from repro.utils.hashing import mix64
from repro.workloads.base import TraceBuilder, WorkloadGenerator

__all__ = [
    "PATTERN_FAMILIES",
    "BurstyPattern",
    "ComposedPattern",
    "HotspotPattern",
    "PatternWorkload",
    "SequentialPattern",
    "UniformRandomPattern",
    "WorkloadSpecError",
    "ZipfianPattern",
    "compose",
    "parse_workload_spec",
    "register_pattern_family",
    "split_top_level",
    "spec_digest",
]


class WorkloadSpecError(ValueError):
    """A malformed, unknown, or unresolvable workload spec."""


# A family factory receives the parsed keyword params, the positional
# sub-generators (compose families only), and the default seed.
FamilyFactory = Callable[[Dict[str, object], List[WorkloadGenerator], int], WorkloadGenerator]

PATTERN_FAMILIES: Dict[str, FamilyFactory] = {}


def register_pattern_family(name: str, factory: FamilyFactory) -> None:
    """Register a spec-grammar family (``replay`` registers ``trace``)."""
    PATTERN_FAMILIES[name] = factory


def _suggest(name: str, candidates: Sequence[str]) -> str:
    matches = difflib.get_close_matches(name, list(candidates), n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr() round-trips and renders 1.2 as "1.2", not "1.2000...".
        text = repr(value)
        if "e" in text or "E" in text:
            # Exponent forms do not survive the strict spec grammar;
            # render tiny/huge values in fixed point instead.
            integer, _, fraction = format(value, ".16f").partition(".")
            text = f"{integer}.{fraction.rstrip('0') or '0'}"
        return text[:-2] if text.endswith(".0") else text
    return str(value)


def spec_digest(canonical_spec: str) -> str:
    """The 16-hex content digest of a canonical workload spec."""
    return hashlib.sha256(canonical_spec.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# the family base class
# ----------------------------------------------------------------------
class PatternWorkload(WorkloadGenerator):
    """Base class for parameterized pattern families.

    Subclasses declare ``family`` and ``PARAMS`` -- ``(name, type,
    default)`` triples in canonical order -- and implement
    :meth:`generate`.  The constructor validates and default-fills the
    parameters; :meth:`spec` renders the canonical spec, which is also
    the generator's ``name`` (so PC pools, data-region offsets, and the
    per-trace RNG are all derived from the *canonical* identity, making
    textual spec variants byte-identical).
    """

    family: str = ""
    PARAMS: Tuple[Tuple[str, type, object], ...] = ()

    def __init__(self, seed: int = 1, **params: object) -> None:
        declared = {name: (kind, default) for name, kind, default in self.PARAMS}
        for key in params:
            if key not in declared:
                raise WorkloadSpecError(
                    f"{self.family}: unknown parameter {key!r} "
                    f"(valid: {', '.join(sorted(declared))}"
                    f"{_suggest(key, list(declared))})"
                )
        self.params: Dict[str, object] = {}
        for name, kind, default in self.PARAMS:
            value = params.get(name, default)
            try:
                if kind is float:
                    value = float(value)
                elif kind is int:
                    if isinstance(value, float) and not value.is_integer():
                        raise ValueError(value)
                    value = int(value)
                elif kind is bool:
                    if not isinstance(value, bool):
                        raise ValueError(value)
            except (TypeError, ValueError):
                raise WorkloadSpecError(
                    f"{self.family}: parameter {name}={value!r} is not "
                    f"a valid {kind.__name__}"
                ) from None
            self.params[name] = value
        self._check_params()
        super().__init__(self._canonical(seed), seed)

    def _check_params(self) -> None:
        """Subclass hook: range-check ``self.params`` (raise
        :class:`WorkloadSpecError` on nonsense)."""

    def _require_positive(self, *names: str) -> None:
        for name in names:
            if self.params[name] <= 0:  # type: ignore[operator]
                raise WorkloadSpecError(
                    f"{self.family}: parameter {name} must be positive, "
                    f"got {self.params[name]!r}"
                )

    def _require_fraction(self, *names: str) -> None:
        for name in names:
            value = self.params[name]
            if not 0.0 <= value <= 1.0:  # type: ignore[operator]
                raise WorkloadSpecError(
                    f"{self.family}: parameter {name} must be in [0, 1], "
                    f"got {value!r}"
                )

    def _canonical(self, seed: int) -> str:
        inner = [f"{name}={_format_value(self.params[name])}" for name, _, _ in self.PARAMS]
        inner.append(f"seed={seed}")
        return f"{self.family}({','.join(inner)})"

    def spec(self) -> str:
        """The canonical spec: every parameter explicit, seed last."""
        return self.name

    def spec_digest(self) -> str:
        """Digest of the canonical spec (folded into stream-store keys)."""
        return spec_digest(self.spec())

    def _emitter(self, builder: TraceBuilder, rng) -> Callable[[int, int, int], None]:
        """``emit(pc, address, gap)``: a load or -- with probability
        ``write`` -- a store.  The write draw is made only when
        ``write > 0``, after the caller's own draws for the record."""
        write = self.params["write"]
        if not write:
            return builder.load
        random, load, store = rng.random, builder.load, builder.store

        def emit(pc: int, address: int, gap: int) -> None:
            if random() < write:
                store(pc, address, gap)
            else:
                load(pc, address, gap)

        return emit


# ----------------------------------------------------------------------
# the families
# ----------------------------------------------------------------------
class ZipfianPattern(PatternWorkload):
    """Zipf-distributed block popularity over a footprint.

    Rank *r* of ``N`` blocks is referenced with probability proportional
    to ``1 / (r+1)**a``; ranks scatter over the footprint through a
    mixing hash so popularity is uncorrelated with address.  PCs are
    assigned per popularity band (``pcs`` bands), so hot data keeps a
    stable, learnable PC population while the cold tail churns --
    sweeping ``a`` moves the workload continuously between uniform
    pressure (``a=0``) and a cache-resident hot set (``a>=1.5``).
    """

    family = "zipf"
    PARAMS = (
        ("a", float, 1.2),
        ("footprint", float, 4.0),
        ("gap", int, 4),
        ("write", float, 0.0),
        ("pcs", int, 16),
    )

    def _check_params(self) -> None:
        if self.params["a"] < 0:
            raise WorkloadSpecError(f"zipf: skew a must be >= 0, got {self.params['a']!r}")
        self._require_positive("footprint", "gap", "pcs")
        self._require_fraction("write")

    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        blocks = self.region_blocks(llc_bytes, self.params["footprint"])
        skew = self.params["a"]
        gap = self.params["gap"]
        pcs = self.params["pcs"]
        # Cumulative Zipf weights over ranks; sampled by bisection.
        cumulative: List[float] = []
        total = 0.0
        for rank in range(blocks):
            total += 1.0 / float(rank + 1) ** skew
            cumulative.append(total)
        base = self.data_region(0)
        salt = (self.seed << 8) ^ 0x5bd1
        pool = [self.pc(index) for index in range(pcs)]
        rng = self._rng()
        builder = TraceBuilder(self.name, instructions)
        emit = self._emitter(builder, rng)
        while not builder.exhausted:
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            if rank >= blocks:
                rank = blocks - 1
            block = mix64(rank ^ salt) % blocks
            emit(pool[min(rank, pcs - 1)], base + block * 64, gap)
        return builder.build()


class HotspotPattern(PatternWorkload):
    """A hot fraction of the footprint takes most of the traffic.

    With probability ``p`` an access falls uniformly in the hot region
    (``hot`` of the footprint), else uniformly in the cold remainder.
    Hot and cold accesses use disjoint PC pools, so cold-region deadness
    is perfectly PC-correlated -- the clean DBRB-bypass case -- while
    the two-level distribution stresses the sampler's set sampling.
    """

    family = "hotspot"
    PARAMS = (
        ("hot", float, 0.1),
        ("p", float, 0.9),
        ("footprint", float, 2.0),
        ("gap", int, 4),
        ("write", float, 0.0),
    )

    def _check_params(self) -> None:
        self._require_positive("footprint", "gap")
        self._require_fraction("p", "write")
        if not 0.0 < self.params["hot"] < 1.0:
            raise WorkloadSpecError(
                f"hotspot: hot fraction must be in (0, 1), got {self.params['hot']!r}"
            )

    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        blocks = self.region_blocks(llc_bytes, self.params["footprint"])
        hot_blocks = max(1, int(blocks * self.params["hot"]))
        cold_blocks = max(1, blocks - hot_blocks)
        probability = self.params["p"]
        gap = self.params["gap"]
        base = self.data_region(0)
        pool = [self.pc(index) for index in range(16)]
        rng = self._rng()
        builder = TraceBuilder(self.name, instructions)
        emit = self._emitter(builder, rng)
        while not builder.exhausted:
            if rng.random() < probability:
                block = rng.randrange(hot_blocks)
                pc = pool[block % 8]
            else:
                block = hot_blocks + rng.randrange(cold_blocks)
                pc = pool[8 + block % 8]
            emit(pc, base + block * 64, gap)
        return builder.build()


class BurstyPattern(PatternWorkload):
    """On/off traffic: dense bursts inside a small jumping window.

    Each burst issues ``burst`` back-to-back accesses confined to a
    window of ``window`` x footprint, then idles for ``idle`` non-memory
    instructions before the window jumps.  Burst-local reuse is deep and
    then dies wholesale -- the window's blocks are dead the instant the
    burst ends -- so prediction quality shows up directly as how fast
    the abandoned window is evicted or bypassed.
    """

    family = "bursty"
    PARAMS = (
        ("burst", int, 64),
        ("window", float, 0.02),
        ("idle", int, 200),
        ("footprint", float, 4.0),
        ("gap", int, 2),
        ("write", float, 0.0),
    )

    def _check_params(self) -> None:
        self._require_positive("burst", "footprint", "gap")
        self._require_fraction("write")
        if self.params["idle"] < 0:
            raise WorkloadSpecError(
                f"bursty: idle must be >= 0, got {self.params['idle']!r}"
            )
        if not 0.0 < self.params["window"] <= 1.0:
            raise WorkloadSpecError(
                f"bursty: window must be in (0, 1], got {self.params['window']!r}"
            )

    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        blocks = self.region_blocks(llc_bytes, self.params["footprint"])
        window = max(1, int(blocks * self.params["window"]))
        burst = self.params["burst"]
        idle = self.params["idle"]
        gap = self.params["gap"]
        base = self.data_region(0)
        pool = [self.pc(index) for index in range(8)]
        rng = self._rng()
        builder = TraceBuilder(self.name, instructions)
        emit = self._emitter(builder, rng)
        while not builder.exhausted:
            start = rng.randrange(max(1, blocks - window))
            for index in range(burst):
                if builder.exhausted:
                    break
                block = start + rng.randrange(window)
                emit(pool[index % 8], base + block * 64, gap)
            builder.compute(idle)
        return builder.build()


class SequentialPattern(PatternWorkload):
    """Interleaved sequential streams marching over the footprint.

    ``streams`` pointers advance round-robin through disjoint shares of
    the footprint, wrapping at the end -- pure streaming: every block is
    dead after its touch, with one perfectly learnable PC per stream.
    """

    family = "seq"
    PARAMS = (
        ("streams", int, 4),
        ("footprint", float, 8.0),
        ("gap", int, 4),
        ("write", float, 0.0),
    )

    def _check_params(self) -> None:
        self._require_positive("streams", "footprint", "gap")
        self._require_fraction("write")

    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        streams = self.params["streams"]
        blocks = max(streams, self.region_blocks(llc_bytes, self.params["footprint"]))
        share = blocks // streams
        gap = self.params["gap"]
        wrap = max(1, share)
        pool = [self.pc(index) for index in range(streams)]
        bases = [self.data_region(stream) for stream in range(streams)]
        rng = self._rng()
        builder = TraceBuilder(self.name, instructions)
        emit = self._emitter(builder, rng)
        cursors = [0] * streams
        while not builder.exhausted:
            for stream in range(streams):
                if builder.exhausted:
                    break
                block = cursors[stream]
                cursors[stream] = (block + 1) % wrap
                emit(pool[stream], bases[stream] + block * 64, gap)
        return builder.build()


class UniformRandomPattern(PatternWorkload):
    """Uniform random references over the footprint.

    The zero-information baseline: deadness carries no PC signal at all,
    so any predictor coverage above chance is overfitting -- the
    pattern-space analogue of the suite's ``astar``.
    """

    family = "uniform"
    PARAMS = (
        ("footprint", float, 2.0),
        ("gap", int, 4),
        ("write", float, 0.0),
        ("pcs", int, 16),
    )

    def _check_params(self) -> None:
        self._require_positive("footprint", "gap", "pcs")
        self._require_fraction("write")

    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        blocks = self.region_blocks(llc_bytes, self.params["footprint"])
        gap = self.params["gap"]
        pcs = self.params["pcs"]
        base = self.data_region(0)
        pool = [self.pc(index) for index in range(pcs)]
        rng = self._rng()
        builder = TraceBuilder(self.name, instructions)
        emit = self._emitter(builder, rng)
        while not builder.exhausted:
            block = rng.randrange(blocks)
            emit(pool[rng.randrange(pcs)], base + block * 64, gap)
        return builder.build()


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------
class ComposedPattern(WorkloadGenerator):
    """Phased or blended mixture of pattern workloads.

    ``phased`` cycles through the parts in weight-proportional slices
    (non-stationary behaviour for predictors to track, like the suite's
    :class:`~repro.workloads.generators.MixedPhaseGenerator`); ``blend``
    interleaves the parts' records access-by-access with a deterministic
    smooth weighted round-robin (stationary superposition, like
    co-running tenants sharing one core's stream).
    """

    def __init__(
        self,
        parts: Sequence[WorkloadGenerator],
        weights: Optional[Sequence[float]] = None,
        mode: str = "phased",
        seed: int = 1,
    ) -> None:
        if mode not in ("phased", "blend"):
            raise WorkloadSpecError(f"compose: unknown mode {mode!r} (phased|blend)")
        if not parts:
            raise WorkloadSpecError("compose: at least one part is required")
        for part in parts:
            if not hasattr(part, "spec"):
                raise WorkloadSpecError(
                    f"compose: part {part!r} has no canonical spec(); only "
                    "pattern/trace workloads compose"
                )
        self.parts = list(parts)
        self.weights = [float(w) for w in (weights or [1.0] * len(parts))]
        if len(self.weights) != len(self.parts):
            raise WorkloadSpecError(
                f"compose: {len(self.parts)} parts but "
                f"{len(self.weights)} weights"
            )
        if any(w <= 0 for w in self.weights):
            raise WorkloadSpecError("compose: weights must be positive")
        self.mode = mode
        inner = ",".join(part.spec() for part in self.parts)
        ratio = ":".join(_format_value(w) for w in self.weights)
        super().__init__(f"{mode}({inner},weights={ratio},seed={seed})", seed)

    def spec(self) -> str:
        return self.name

    def spec_digest(self) -> str:
        return spec_digest(self.spec())

    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        if self.mode == "phased":
            return self._generate_phased(instructions, llc_bytes)
        return self._generate_blend(instructions, llc_bytes)

    def _generate_phased(self, instructions: int, llc_bytes: int) -> Trace:
        pieces: List[Trace] = []
        produced = 0
        index = 0
        # Each part recurs ~twice per trace, as MixedPhaseGenerator does.
        chunk = max(instructions // (2 * len(self.parts)), 1000)
        while produced < instructions:
            part = self.parts[index % len(self.parts)]
            weight = self.weights[index % len(self.weights)]
            budget = min(max(int(chunk * weight), 500), instructions - produced)
            piece = part.generate(budget, llc_bytes)
            pieces.append(piece)
            produced += piece.instructions
            index += 1
        return Trace.concatenate(self.name, pieces)

    def _generate_blend(self, instructions: int, llc_bytes: int) -> Trace:
        total_weight = sum(self.weights)
        streams = [
            part.generate(
                max(1000, int(instructions * weight / total_weight)), llc_bytes
            )
            for part, weight in zip(self.parts, self.weights)
        ]
        lengths = [len(stream) for stream in streams]
        cursors = [0] * len(streams)
        credits = [0.0] * len(streams)
        pcs = array("Q")
        addresses = array("Q")
        gaps = array("q")
        flags = bytearray()
        emitted = 0
        # Smooth weighted round-robin: deterministic, starvation-free.
        while emitted < instructions:
            live = [i for i in range(len(streams)) if cursors[i] < lengths[i]]
            if not live:
                break
            for i in live:
                credits[i] += self.weights[i]
            pick = max(live, key=lambda i: (credits[i], -i))
            credits[pick] -= total_weight
            stream = streams[pick]
            cursor = cursors[pick]
            cursors[pick] = cursor + 1
            gap = stream.gaps[cursor]
            pcs.append(stream.pcs[cursor])
            addresses.append(stream.addresses[cursor])
            gaps.append(gap)
            flags.append(stream.flags[cursor])
            emitted += gap + 1
        return Trace.from_columns(self.name, pcs, addresses, gaps, flags)


def compose(
    *parts: WorkloadGenerator,
    weights: Optional[Sequence[float]] = None,
    mode: str = "phased",
    seed: int = 1,
) -> ComposedPattern:
    """Combine pattern workloads into a phased or blended mixture."""
    return ComposedPattern(parts, weights=weights, mode=mode, seed=seed)


# ----------------------------------------------------------------------
# the spec parser
# ----------------------------------------------------------------------
def split_top_level(text: str, separator: str) -> List[str]:
    """Split on ``separator`` at parenthesis depth zero, keeping empty
    and unstripped pieces for the caller to judge.

    Specs nest (``zipf(a=1.2,seed=7)``, ``mcf+phased(seq,zipf)``), so a
    plain ``str.split`` would shred them.

    Raises:
        WorkloadSpecError: unbalanced parentheses.
    """
    pieces: List[str] = []
    depth = 0
    start = 0
    for index, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise WorkloadSpecError(f"unbalanced ')' in spec {text!r}")
        elif char == separator and depth == 0:
            pieces.append(text[start:index])
            start = index + 1
    if depth != 0:
        raise WorkloadSpecError(f"unbalanced '(' in spec {text!r}")
    pieces.append(text[start:])
    return pieces


# Strict numeric forms: exponent notation and leading zeros stay
# strings, so hex tokens (trace digests) never misparse as numbers.
_INT_RE = re.compile(r"-?\d+")
_FLOAT_RE = re.compile(r"-?\d+\.\d+")


def _parse_value(text: str) -> object:
    text = text.strip()
    if not text:
        raise WorkloadSpecError("empty value in spec")
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if ":" in text and not text.startswith("/"):
        pieces = [_try_number(piece) for piece in text.split(":")]
        if all(piece is not None for piece in pieces):
            return tuple(pieces)
        return text  # a path or name containing ':'
    number = _try_number(text)
    return text if number is None else number


def _try_number(text: str) -> Union[int, float, None]:
    if _INT_RE.fullmatch(text):
        value = int(text)
        return value if str(value) == text else None
    if _FLOAT_RE.fullmatch(text):
        return float(text)
    return None


def _is_identifier(text: str) -> bool:
    return bool(text) and (text[0].isalpha() or text[0] == "_") and all(
        c.isalnum() or c in "._-" for c in text
    )


def parse_workload_spec(text: str, seed: int = 1) -> WorkloadGenerator:
    """Instantiate the workload a spec string describes.

    ``seed`` is the default when the spec does not pin ``seed=`` itself
    (the sweep harness passes the campaign seed, so unpinned pattern
    cells follow ``REPRO_SEED`` exactly like suite benchmarks).

    Raises:
        WorkloadSpecError: unknown family (with a closest-match
            suggestion), unknown/ill-typed parameter, or malformed
            syntax.
    """
    text = text.strip()
    if "(" not in text:
        family, body = text, ""
    else:
        family, _, rest = text.partition("(")
        family = family.strip()
        rest = rest.strip()
        if not rest.endswith(")"):
            raise WorkloadSpecError(f"spec {text!r} is missing its closing ')'")
        body = rest[:-1]
    if not _is_identifier(family):
        raise WorkloadSpecError(f"bad family name in spec {text!r}")
    factory = PATTERN_FAMILIES.get(family)
    if factory is None:
        raise WorkloadSpecError(
            f"unknown workload family {family!r} "
            f"(families: {', '.join(sorted(PATTERN_FAMILIES))}"
            f"{_suggest(family, sorted(PATTERN_FAMILIES))})"
        )

    params: Dict[str, object] = {}
    positional: List[object] = []
    if body.strip():
        for piece in split_top_level(body, ","):
            piece = piece.strip()
            if not piece:
                raise WorkloadSpecError(f"empty argument in spec {text!r}")
            key, eq, value_text = piece.partition("=")
            if eq and _is_identifier(key.strip()) and "(" not in key:
                params[key.strip()] = _parse_value(value_text)
            elif "(" in piece or piece in PATTERN_FAMILIES:
                positional.append(parse_workload_spec(piece, seed=seed))
            else:
                positional.append(_parse_value(piece))
    return factory(params, positional, seed)


# ----------------------------------------------------------------------
# family registration
# ----------------------------------------------------------------------
def _simple_family(cls):
    def factory(params, positional, seed):
        if positional:
            raise WorkloadSpecError(
                f"{cls.family}: takes only key=value parameters, got "
                f"positional {positional!r}"
            )
        seed_value = params.pop("seed", seed)
        if not isinstance(seed_value, int):
            raise WorkloadSpecError(f"{cls.family}: seed must be an integer")
        return cls(seed=seed_value, **params)

    return factory


def _compose_family(mode):
    def factory(params, positional, seed):
        parts = []
        for part in positional:
            if not isinstance(part, WorkloadGenerator):
                raise WorkloadSpecError(
                    f"{mode}: parts must be workload specs, got {part!r}"
                )
            parts.append(part)
        seed_value = params.pop("seed", seed)
        weights = params.pop("weights", None)
        if isinstance(weights, (int, float)):
            weights = (weights,)
        if params:
            raise WorkloadSpecError(
                f"{mode}: unknown parameter(s) {', '.join(sorted(params))} "
                "(valid: weights, seed)"
            )
        if not isinstance(seed_value, int):
            raise WorkloadSpecError(f"{mode}: seed must be an integer")
        return ComposedPattern(parts, weights=weights, mode=mode, seed=seed_value)

    return factory


for _cls in (ZipfianPattern, HotspotPattern, BurstyPattern, SequentialPattern,
             UniformRandomPattern):
    register_pattern_family(_cls.family, _simple_family(_cls))
for _mode in ("phased", "blend"):
    register_pattern_family(_mode, _compose_family(_mode))
