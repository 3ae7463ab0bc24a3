"""Federated learning simulator with a globally fixed simplex-frame
classifier, locally adapted to each client's class distribution."""

from .cli import RunConfig, parse_config
from .datagen import (
    ClientShard,
    Dataset,
    dirichlet_partition,
    load_csv,
    pcdd_partition,
    save_csv,
    synth_gaussian_mixture,
)
from .etfgeom import EtfClassifier, make_etf, mean_pairwise_angle, verify_etf
from .fedsim import (
    AlgoKind,
    Hyperparams,
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
    nc1_variability,
    personal_accuracy,
    predict,
)
from .neuralnet import (
    Layout,
    finite_diff_check,
    forward,
    init_backbone,
    logits,
    lpm_feature_fit,
)

__version__ = "0.1.0"
