"""Out-of-order core timing model.

The paper uses CMP$im, "a memory-system simulator that is accurate to
within 4% of a detailed cycle-accurate simulator", modeling a 4-wide
8-stage pipeline with a 128-entry instruction window (Section VI-A).  We
reproduce the properties of that model that the study actually depends on:

* instructions issue at up to ``width`` per cycle;
* memory operations complete after their resolved hierarchy latency;
* *independent* misses overlap freely as long as they fit inside the
  instruction window (memory-level parallelism);
* an incomplete memory operation stalls issue once it is ``window``
  instructions old (the reorder buffer fills behind it);
* *dependent* memory operations (pointer chasing, flagged in the trace)
  serialize: the dependent access cannot start before its producer's data
  returns.

The model is O(number of memory operations): non-memory instructions are
accounted in bulk through each record's ``gap``.  Everything but the LLC
hit vector is fixed per workload, so :meth:`CoreModel.run` walks the
workload's flat :class:`~repro.sim.hierarchy.TimingPlan` instead of the
trace records; :meth:`CoreModel.run_reference` is the record-by-record
oracle it must match exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.sim.hierarchy import FilteredTrace, MachineConfig

__all__ = ["CoreModel", "CoreTiming"]


@dataclass
class CoreTiming:
    """Result of a timing run."""

    instructions: int
    cycles: float

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles


class CoreModel:
    """Window-based OoO timing over a filtered trace.

    One instance is reusable across runs (it keeps no state between calls
    to :meth:`run`).
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    def run(self, filtered: FilteredTrace, llc_hits: Sequence[bool]) -> CoreTiming:
        """Compute cycles for a trace given each LLC access's hit/miss.

        Evaluates the workload's :class:`~repro.sim.hierarchy.TimingPlan`
        (built once per workload and core shape, shared by every
        technique) and returns exactly the cycles of
        :meth:`run_reference`: the same float operations in the same
        order.

        Args:
            filtered: the L1/L2-filtered trace.
            llc_hits: one entry per element of ``filtered.llc_indices``;
                True when that access hit in the LLC under the policy being
                evaluated.

        Returns:
            total cycle count and IPC.
        """
        self._check_hits(filtered, llc_hits)
        config = self.config
        plan = filtered.timing_plan(config)
        llc_latency = config.llc_latency
        memory_latency = config.memory_latency
        # Each LLC operation's latency, overwritten by its completion
        # cycle when it issues; the plan says how many of them have left
        # the window before each record.
        completions = [llc_latency if hit else memory_latency for hit in llc_hits]
        step = 1.0 / config.width

        issue = 0.0
        last_completion = 0.0
        final_completion = 0.0
        issued = 0
        retired = 0
        for gap_width, depends, latency, pop_hi in zip(
            plan.gap_width, plan.depends, plan.latencies, plan.pop_hi
        ):
            issue += gap_width
            while retired < pop_hi:
                done = completions[retired]
                retired += 1
                if done > issue:
                    issue = done
            if depends and last_completion > issue:
                issue = last_completion
            if latency < 0:
                last_completion = issue + completions[issued]
                completions[issued] = last_completion
                issued += 1
            else:
                last_completion = issue + latency
                if last_completion > final_completion:
                    final_completion = last_completion
            issue += step
        # The LLC completions join the maximum once, not per record; max
        # is exact, so the result is the reference's.
        if completions:
            final_completion = max(final_completion, max(completions))

        cycles = max(issue, final_completion)
        return CoreTiming(instructions=filtered.instructions, cycles=cycles)

    def run_reference(
        self, filtered: FilteredTrace, llc_hits: Sequence[bool]
    ) -> CoreTiming:
        """The record-by-record model :meth:`run` must match exactly.

        Walks the trace records directly, with an explicit in-flight
        queue; kept as the oracle for tests and benchmarks.
        """
        self._check_hits(filtered, llc_hits)
        config = self.config
        width = config.width
        window = config.window
        l2_latency = config.l2_latency
        llc_latency = config.llc_latency
        memory_latency = config.memory_latency
        # Per-record resolved latency for L1/L2 hits (-1 marks LLC-bound
        # records), precomputed once per workload and shared across the
        # techniques replayed on it.
        fixed_latencies = filtered.fixed_latencies(config.l1_latency, l2_latency)

        issue = 0.0            # cycle the next instruction issues
        inst_pos = 0           # instructions issued so far
        last_completion = 0.0  # completion of the previous memory op
        final_completion = 0.0
        # In-flight long-latency ops: (instruction position, completion).
        in_flight: deque = deque()
        llc_cursor = 0

        for record_index, record in enumerate(filtered.trace.records):
            gap = record.gap
            inst_pos += gap + 1
            issue += gap / width
            # Window pressure: ops older than `window` instructions must
            # have completed before this instruction can issue.
            while in_flight and inst_pos - in_flight[0][0] > window:
                _, done = in_flight.popleft()
                if done > issue:
                    issue = done

            latency = fixed_latencies[record_index]
            if latency < 0:
                latency = llc_latency if llc_hits[llc_cursor] else memory_latency
                llc_cursor += 1

            start = issue
            if record.depends and last_completion > start:
                # Address depends on the previous load's data.
                start = last_completion
                issue = start  # issue logically stalls with it
            done = start + latency
            last_completion = done
            if done > final_completion:
                final_completion = done
            if latency > l2_latency:
                in_flight.append((inst_pos, done))
            issue += 1.0 / width

        cycles = max(issue, final_completion)
        return CoreTiming(instructions=filtered.instructions, cycles=cycles)

    @staticmethod
    def _check_hits(filtered: FilteredTrace, llc_hits: Sequence[bool]) -> None:
        if len(llc_hits) != len(filtered.llc_indices):
            raise ValueError(
                f"llc_hits has {len(llc_hits)} entries for "
                f"{len(filtered.llc_indices)} LLC accesses"
            )
