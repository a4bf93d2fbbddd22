"""The ten quad-core workload mixes of Table IV, plus ad-hoc mixes.

Benchmark composition is taken verbatim from the paper's Table IV; each
mix combines four single-thread benchmarks with a variety of cache
sensitivities (streamers, thrash, pointer chase, compute-bound), which is
what makes shared-LLC management interesting.

Beyond Table IV, any ``+``-separated list of workload names is a valid
ad-hoc mix -- ``mcf+hmmer+zipf(a=1.4)+seq(streams=8)`` -- one workload
per core, so suite benchmarks and pattern specs combine freely.  Each
member is an ordinary workload, at the seed :func:`mix_cores` gives it.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.patterns import split_top_level
from repro.workloads.suite import validate_workloads

__all__ = ["MIXES", "MIX_NAMES", "mix_cores", "mix_members"]

#: Table IV, verbatim.
MIXES: Dict[str, Tuple[str, str, str, str]] = {
    "mix1": ("mcf", "hmmer", "libquantum", "omnetpp"),
    "mix2": ("gobmk", "soplex", "libquantum", "lbm"),
    "mix3": ("zeusmp", "leslie3d", "libquantum", "xalancbmk"),
    "mix4": ("gamess", "cactusADM", "soplex", "libquantum"),
    "mix5": ("bzip2", "gamess", "mcf", "sphinx3"),
    "mix6": ("gcc", "calculix", "libquantum", "sphinx3"),
    "mix7": ("perlbench", "milc", "hmmer", "lbm"),
    "mix8": ("bzip2", "gcc", "gobmk", "lbm"),
    "mix9": ("gamess", "mcf", "tonto", "xalancbmk"),
    "mix10": ("milc", "namd", "sphinx3", "xalancbmk"),
}

MIX_NAMES: Tuple[str, ...] = tuple(MIXES)


def mix_cores(workload: str, seed: int) -> Optional[List[Tuple[str, int]]]:
    """Each core's ``(member, seed)`` if ``workload`` names a mix, else None.

    The one member rule: a Table-IV name or a ``+``-joined name resolves
    through :func:`mix_members`, and core ``c`` runs its member at
    ``seed + c``, so core 0 runs exactly the single-core workload of that
    name.  Any other name is a single workload (None).
    """
    if workload not in MIXES and "+" not in workload:
        return None
    return [(name, seed + core) for core, name in enumerate(mix_members(workload))]


def mix_members(mix_name: str) -> Sequence[str]:
    """Resolve a mix name to its per-core workload names.

    Table IV names resolve from :data:`MIXES`; names containing ``+``
    are ad-hoc mixes whose members are validated individually.

    Raises:
        KeyError: unknown Table IV mix, with a closest-match suggestion.
        ValueError: an ad-hoc mix with an empty or unresolvable member,
            or unbalanced parentheses.
    """
    names = MIXES.get(mix_name)
    if names is not None:
        return names
    if "+" in mix_name:
        members = [member.strip() for member in split_top_level(mix_name, "+")]
        if any(not member for member in members):
            raise ValueError(f"ad-hoc mix {mix_name!r} has an empty member")
        bad = validate_workloads(members)
        if bad:
            raise ValueError(
                f"ad-hoc mix {mix_name!r} has unresolvable members: "
                + "; ".join(bad)
            )
        return members
    matches = difflib.get_close_matches(mix_name, MIX_NAMES, n=1)
    hint = f"; did you mean {matches[0]!r}?" if matches else ""
    raise KeyError(
        f"unknown mix {mix_name!r}{hint} (known: {', '.join(MIX_NAMES)}; "
        "ad-hoc mixes join workload names with '+')"
    )
