import numpy as np
import pytest

from mesoscale import sampler


@pytest.fixture
def run_recording_labels(monkeypatch):
    """run_chain that also returns the label vector of every retained draw.

    Labels are copied after enforce_identifiability, the last step of each
    iteration, and kept for the iterations run_chain retains: after burn-in,
    every thin-th.
    """
    def run(g, h, cfg):
        seen = []
        relabel = sampler.enforce_identifiability

        def recording(state):
            state = relabel(state)
            seen.append(state.c.copy())
            return state

        monkeypatch.setattr(sampler, "enforce_identifiability", recording)
        samples = sampler.run_chain(g, h, cfg)
        it = np.arange(len(seen)) % cfg.total_samples
        keep = (it >= cfg.burn_in) & ((it - cfg.burn_in + 1) % cfg.thin == 0)
        assert keep.sum() == samples.retained
        return samples, np.array(seen)[keep]

    return run
