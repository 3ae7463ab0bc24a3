"""Metamorphic relations: two configs that differ only where an algorithm
cannot see it give bit-identical runs.

- laonly on clients that hold every class equally (phi = 1 and a full
  mask) trains exactly as fedavg; only PA differs, by design: laonly scores
  each client's own row, fedavg a fine-tune of the server row.
- For the fixed-frame algorithms only the product e_h * e_w matters.
  (4 e_h, e_w / 4) doubles every feature and halves the frame, both
  exactly (a power-of-two scale of a correctly rounded sqrt), so every
  logit and gradient keeps its bits.
"""
import numpy as np
import pytest

from conftest import REFERENCE

from fedgela.cli import parse_config
from fedgela.fedsim import init_state, run_federation

# criterion 5's small config: 4 classes per client of 4, dealt equally
UNIFORM = {
    "classes": 4, "input_dim": 6, "n_per_class": 40, "class_sep": 3.0,
    "noise_sigma": 1.0, "scheme": "pcdd", "classes_per_client": 4,
    "clients": 4, "rounds": 3, "epochs": 3, "batch_size": 10,
    "min_size": 5, "lr": 0.05, "e_w": 1.0, "hidden": "16", "seed": 7,
}


def assert_same_models(a, b):
    assert a.trained.all() and b.trained.all()
    assert a.server_theta.tobytes() == b.server_theta.tobytes()
    assert a.client_theta.tobytes() == b.client_theta.tobytes()


def test_laonly_on_uniform_clients_is_fedavg():
    laonly = run_federation(parse_config(UNIFORM | {"algo": "laonly"}))
    fedavg = run_federation(parse_config(UNIFORM | {"algo": "fedavg"}))
    inputs = laonly.inputs
    assert np.all(inputs.phi == 1.0) and inputs.mask.all()
    assert_same_models(laonly, fedavg)
    assert len(laonly.logs) == len(fedavg.logs) == UNIFORM["rounds"]
    for a, b in zip(laonly.logs, fedavg.logs):
        assert (a.participants, a.client_losses, a.mean_train_loss) == \
            (b.participants, b.client_losses, b.mean_train_loss)
        assert a.report.ga == b.report.ga
        assert a.report.angles == b.report.angles


@pytest.mark.parametrize("algo", ["fedge", "fedgela"])
def test_fixed_frame_sees_only_the_product_of_e_h_and_e_w(algo):
    base = REFERENCE | {"algo": algo, "seed": 1, "rounds": 3}
    scaled = base | {"e_h": 4 * base["e_h"], "e_w": base["e_w"] / 4}
    a, b = (run_federation(parse_config(cfg)) for cfg in (base, scaled))
    frame_a, frame_b = (init_state(parse_config(cfg | {"rounds": 0})).inputs.frame
                        for cfg in (base, scaled))
    assert (2 * frame_b).tobytes() == frame_a.tobytes()   # the frame halves exactly
    assert_same_models(a, b)
    assert len(a.logs) == len(b.logs) == 3
    for la, lb in zip(a.logs, b.logs):
        assert la.report is not None
        assert la == lb
