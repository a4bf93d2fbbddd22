"""Pins the set-dueling leader layout of DIP, thread-aware DIP and DRRIP.

The layout -- which sets lead for which core, and for which of the two
dueling policies -- decides every insertion a follower makes, so a change
to it changes results.  It is recovered here through the policies' event
interface alone (``on_miss`` and the insertion decision), not their
internal arrays, and hashed per policy over the whole grid:

* each policy is built with a 1-bit PSEL, so one miss in one of core
  ``c``'s second-policy leaders flips ``c``'s followers from the second
  policy (the starting PSEL midpoint) to the first, and with a fill
  throttle too wide to fire during the probe;
* pass one: sets where ``c`` takes the first policy are ``c``'s
  first-policy leaders (``F``);
* a miss by ``c`` in every other set drives ``c``'s PSEL down;
* pass two: sets that flipped to the first policy are ``c``'s followers
  (``f``), and sets still on the second policy are ``c``'s second-policy
  leaders (``S``).

A cache with fewer than two sets per core cannot seat one leader of each
policy per core; binding a policy to one raises ``ValueError``, and the
grid points below that size are checked for the error instead of hashed.
"""

import hashlib

import pytest

from repro.cache import Cache, CacheAccess
from repro.replacement import DIPPolicy, DRRIPPolicy

from tests.conftest import tiny_geometry

#: Sets per cache: every power of two from 1 to 2048.
SET_COUNTS = [1 << bits for bits in range(12)]
#: ``leader_sets`` values, ``None`` being the ratio default.
LEADER_SETS = [None, 1, 2, 4, 32]
#: A fill throttle that never lets the rare fill through during a probe.
NO_THROTTLE = 1 << 40
ASSOCIATIVITY = 2


def _dip(num_cores, leader_sets):
    assert num_cores == 1
    return DIPPolicy(
        leader_sets=leader_sets, psel_bits=1, epsilon_inverse=NO_THROTTLE
    )


def _tadip(num_cores, leader_sets):
    return DIPPolicy(
        num_cores=num_cores, leader_sets=leader_sets, psel_bits=1,
        epsilon_inverse=NO_THROTTLE,
    )


def _drrip(num_cores, leader_sets):
    return DRRIPPolicy(
        num_cores=num_cores, leader_sets=leader_sets, psel_bits=1,
        epsilon_inverse=NO_THROTTLE,
    )


def _takes_second(policy, set_index, access):
    """True when this fill takes the second dueling policy (BIP's LRU
    position, BRRIP's distant RRPV)."""
    if isinstance(policy, DRRIPPolicy):
        return policy.insertion_rrpv(set_index, access) == policy.rrpv_max
    return policy.insertion_position(set_index, access) == ASSOCIATIVITY - 1


def observed_layout(factory, num_sets, num_cores, leader_sets):
    """One ``F``/``S``/``f`` string per core (see the module docstring)."""
    policy = factory(num_cores, leader_sets)
    Cache(tiny_geometry(sets=num_sets, assoc=ASSOCIATIVITY), policy)
    rows = []
    for core in range(num_cores):
        access = CacheAccess(address=0, pc=0, core=core)
        first = [
            not _takes_second(policy, set_index, access)
            for set_index in range(num_sets)
        ]
        for set_index in range(num_sets):
            if not first[set_index]:
                policy.on_miss(set_index, access)
        row = []
        for set_index in range(num_sets):
            if first[set_index]:
                row.append("F")
            elif _takes_second(policy, set_index, access):
                row.append("S")
            else:
                row.append("f")
        rows.append("".join(row))
    return rows


def seats_every_core(num_sets, num_cores):
    return num_sets >= 2 * num_cores


def layout_digest(factory, num_cores):
    digest = hashlib.sha256()
    for num_sets in SET_COUNTS:
        if not seats_every_core(num_sets, num_cores):
            continue
        for leader_sets in LEADER_SETS:
            rows = observed_layout(factory, num_sets, num_cores, leader_sets)
            digest.update(f"{num_sets}/{leader_sets}:{'|'.join(rows)};".encode())
    return digest.hexdigest()[:16]


#: Recorded before DIP, thread-aware DIP and DRRIP shared one layout,
#: and re-recorded on that same layout code over the grid points that
#: seat every core once smaller caches were refused.  Every row reads the
#: same digest for its core count: single-core DIP already matched the
#: thread-aware layout on this grid.
PINS = {
    ("dip", 1): "86fd85b63a9718ee",
    ("tadip", 1): "86fd85b63a9718ee",
    ("tadip", 2): "fc880f860271f2f0",
    ("tadip", 4): "f7a6abdf96e94176",
    ("drrip", 1): "86fd85b63a9718ee",
    ("drrip", 2): "fc880f860271f2f0",
    ("drrip", 4): "f7a6abdf96e94176",
}

FACTORIES = {"dip": _dip, "tadip": _tadip, "drrip": _drrip}


@pytest.mark.parametrize("name,num_cores", sorted(PINS))
def test_layout_matches_its_pin(name, num_cores):
    assert layout_digest(FACTORIES[name], num_cores) == PINS[(name, num_cores)]


def test_each_core_leads_for_both_policies_when_the_cache_seats_it():
    rows = observed_layout(_tadip, 64, 4, None)
    for row in rows:
        assert row.count("F") == 1 and row.count("S") == 1
        assert row.count("f") == 62


@pytest.mark.parametrize("name,num_cores", sorted(PINS))
def test_a_cache_too_small_to_seat_every_core_is_refused(name, num_cores):
    small = [n for n in SET_COUNTS if not seats_every_core(n, num_cores)]
    assert small
    for num_sets in small:
        for leader_sets in LEADER_SETS:
            with pytest.raises(
                ValueError,
                match=f"num_sets {num_sets} < 2 \\* num_cores {num_cores}",
            ):
                observed_layout(FACTORIES[name], num_sets, num_cores, leader_sets)
