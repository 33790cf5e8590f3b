import numpy as np
import pytest

from mesoscale import sampler


@pytest.fixture
def run_recording_labels(monkeypatch):
    """run_chain that also returns the label vector of every retained draw.

    Labels are copied after exchange_groups, the last step of each iteration,
    folded the way run_chain tallies them (group 1 is the group with
    p11 >= p22), and kept for the iterations run_chain retains: after
    burn-in, every thin-th.
    """
    def run(g, h, cfg):
        seen = []
        exchange = sampler.exchange_groups

        def recording(state, g, h, rng):
            state = exchange(state, g, h, rng)
            folded = state.c if state.p.p11 >= state.p.p22 else 3 - state.c
            seen.append(folded.copy())
            return state

        monkeypatch.setattr(sampler, "exchange_groups", recording)
        samples = sampler.run_chain(g, h, cfg)
        it = np.arange(len(seen)) % cfg.total_samples
        keep = (it >= cfg.burn_in) & ((it - cfg.burn_in + 1) % cfg.thin == 0)
        assert keep.sum() == samples.retained
        return samples, np.array(seen)[keep]

    return run
