"""Desk-scale hierarchical vision transformer with MLP early stages,
standard attention late stages, deformable token merging, a numerical
equivalence lab, and a static cost analyzer."""

from .analyzer import audit, cost_report, msa_flops
from .blocks import (MlpBlockParams, MsaParams, PatchEmbedParams,
                     TransformerBlockParams, mlp_block, msa, patch_embed,
                     transformer_block)
from .checkpoint import load_tensors, save_tensors
from .dtm import (DeformableConvParams, DtmParams, deformable_conv,
                  dtm_forward, trace_offsets)
from .equivalence import (attention_as_conv, build_msa_as_conv,
                          receptive_field_probe, verify_fc_equals_1x1_conv)
from .errors import (ConfigError, LitError, NumericError, ShapeError,
                     StateError, ValidationError)
from .model import (ForwardRecord, LitModel, ModelConfig, StageSpec, ablate,
                    build, preset, toy_config)
from .tensor import (BatchNormState, Tape, Tensor, attention, batch_norm, conv2d,
                     gelu, layer_norm, matmul, softmax, softmax_cross_entropy, tensor)
from .train import AdamW, TrainSettings, cosine_lr, run_training, train_step

__version__ = "0.1.0"
