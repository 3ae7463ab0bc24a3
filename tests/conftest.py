"""Shared reference configuration for the acceptance suite.

Desk-scale analogue of the class-disjoint benchmark: 10 Gaussian-blob
classes in 20 input dimensions, dealt 2 classes per client to 10 clients,
trained for 30 rounds of 10 local epochs. e_h=400 gives realistic feature
norms (|h| = 20) so the learnable-classifier collapse dynamics surface;
e_w compensates so the fixed-frame arms see an order-one logit scale.

Every test runs with FEDGELA_OUT_ROOT set to its own tmp_path, so a
relative (or default) out_dir never writes into the working tree.
"""
import pytest


@pytest.fixture(autouse=True)
def _out_root_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDGELA_OUT_ROOT", str(tmp_path))

REFERENCE = {
    "classes": 10,
    "input_dim": 20,
    "n_per_class": 100,
    "class_sep": 2.0,
    "noise_sigma": 1.0,
    "scheme": "pcdd",
    "classes_per_client": 2,
    "clients": 10,
    "rounds": 30,
    "epochs": 10,
    "batch_size": 20,
    "min_size": 10,
    "lr": 0.02,
    "e_w": 1e-4,
    "e_h": 400.0,
    "hidden": "64",
    "feature_dim": 32,
    "eval_every": 1,
    "finetune_epochs": 10,
}
