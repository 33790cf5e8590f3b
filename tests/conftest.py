import numpy as np
import pytest

from mesoscale import sampler


@pytest.fixture
def run_recording_labels():
    """run_chain that also returns the label vector of every retained draw.

    The labels are those of the states sampler.chain_states yields, chain by
    chain, folded the way run_chain tallies them (group 1 is the group with
    p11 >= p22).
    """
    def run(g, h, cfg):
        samples = sampler.run_chain(g, h, cfg)
        labels = [state.c if state.p11 >= state.p22 else 3 - state.c
                  for chain_index in range(cfg.chains)
                  for state in sampler.chain_states(g, h, cfg, chain_index)]
        assert len(labels) == samples.retained
        return samples, np.array(labels)

    return run
