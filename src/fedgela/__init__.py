"""Federated learning simulator with a globally fixed simplex-frame
classifier, locally adapted to each client's class distribution."""

from .cli import RunConfig, parse_config
from .datagen import (
    ClientShard,
    Dataset,
    dirichlet_partition,
    load_csv,
    pcdd_partition,
    synth_gaussian_mixture,
)
from .etfgeom import make_etf, mean_pairwise_angle
from .fedsim import (
    aggregate,
    compute_phi,
    finetune_personalize,
    local_train,
    run_federation,
    sample_clients,
)
from .metrics import (
    angle_report,
    evaluate,
    generic_accuracy,
    personal_accuracy,
    predict,
)
from .neuralnet import (
    Layout,
    finite_diff_check,
    forward,
    init_backbone,
    logits,
)

__version__ = "0.1.0"

# exported from the diagnostics module, which is imported on first use of one
# of them: `run` and `sweep` never load it
_DIAGNOSTICS = ("lpm_feature_fit", "nc1_variability", "save_csv", "verify_etf")


def __getattr__(name):
    if name in _DIAGNOSTICS:
        from . import diagnostics

        return getattr(diagnostics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
