"""Quality-score regression with calibrated predictive uncertainty.

The package trains a small two-head network that predicts both a score and
its variance, recalibrates the variances with a closed-form scale fitted on
held-out data, estimates epistemic uncertainty with MC dropout, and ships
the metrics and synthetic data generators needed to check all of it against
known ground truth.

Submodules:

* net       - two-head MLP: init, batched forward, hand-derived batched backward
* loss      - batched Gaussian NLL and MSE training losses with analytic gradients
* trainer   - mini-batch Adam/SGD loop, checkpoints, loss history
* calibrate - closed-form variance scaling
* mcdropout - stochastic forward passes and epistemic variances, as columns
* metrics   - column metrics: MSE, system Spearman, NLL, UCE, sharpness, AUC, curves, report
* datagen   - columnar synthetic datasets with known noise, OOD shifts, CSV I/O
* cli       - gen-data / train / calibrate / evaluate / ood-detect
"""

from .calibrate import CalibrationScale
from .datagen import (
    Dataset,
    GenConfig,
    Heteroscedastic,
    Homoscedastic,
    RaterPanel,
    add_feature_noise,
    gen_ood_shift,
    gen_synthetic,
    load_dataset_csv,
    save_dataset_csv,
    split_dataset,
)
from .loss import mse_loss_batch, nll_loss_batch
from .mcdropout import MCConfig, MCSamples, mc_forward, mc_forward_dataset, variance_of
from .metrics import (
    MetricsReport,
    error_uncertainty_curve,
    mse,
    nll_metric,
    roc_auc,
    selective_sweep,
    sharpness,
    srcc_system,
    uce,
)
from .net import (
    ArchConfig,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
)
from .trainer import (
    TrainConfig,
    TrainHistory,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
