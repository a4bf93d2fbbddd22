"""The smoke driver (``python -m repro.smoke NAME``): one cheap scenario
end to end, the deadline's clean-up, and the unknown-name error."""

from __future__ import annotations

import signal

import pytest

from repro import smoke


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_loadsim_scenario_passes_and_disarms_its_deadline():
    def _sentinel(signum, frame):  # pragma: no cover - never fires
        raise AssertionError("stray SIGALRM")

    saved = signal.signal(signal.SIGALRM, _sentinel)
    try:
        assert smoke.main(["loadsim"]) == 0
        assert signal.getsignal(signal.SIGALRM) is _sentinel
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, saved)


def test_unknown_scenario_exits_nonzero_listing_the_valid_names(capsys):
    with pytest.raises(SystemExit) as exit_info:
        smoke.main(["no-such-scenario"])
    assert exit_info.value.code != 0
    err = capsys.readouterr().err
    for name in smoke.SCENARIOS:
        assert name in err
