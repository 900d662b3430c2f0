"""``repro.core`` — the Easz framework itself (the paper's contribution).

Erase-mask generation (row-based conditional sampler), two-stage patchify,
erase-and-squeeze, the lightweight transformer reconstructor, training loops
and the end-to-end edge/server pipeline.
"""

from .adaptive import (
    BandwidthAdaptiveController,
    BitrateController,
    EraseRatioSchedule,
    RateControlResult,
)
from .config import EaszConfig
from .erase_squeeze import (
    BlockGatherPlan,
    SqueezePlan,
    erase_and_squeeze_image,
    get_squeeze_plan,
    squeezed_shape,
    unsqueeze_image,
    validate_balanced_mask,
)
from .mask_codec import (
    MaskSpec,
    decode_mask,
    encode_mask,
    pack_mask_bits,
    unpack_mask_bits,
)
from .masks import (
    deserialize_mask,
    diagonal_mask,
    mask_erase_ratio,
    proposed_mask,
    random_mask,
    serialize_mask,
    uniform_mask,
)
from .patchify import (
    attention_complexity,
    image_to_patches,
    patch_to_subpatches,
    patches_to_image,
    subpatches_to_patch,
    subpatches_to_tokens,
    tokens_to_subpatches,
)
from .batch_engine import FusedBatchEngine
from .pipeline import EaszCodec, EaszCompressed, EaszDecoder, EaszEncoder
from .reconstruction import (
    EaszReconstructor,
    PixelIndexPlan,
    get_pixel_plan,
    reconstruct_batch,
    reconstruct_image,
)
from .roi import (
    RoiCompressed,
    RoiEaszCodec,
    RoiEaszDecoder,
    RoiEaszEncoder,
    allocate_erase_levels,
    saliency_map,
)
from .sampler import RowConditionalSampler
from .sequence import (
    EaszStreamDecoder,
    EaszStreamEncoder,
    StreamReport,
    encode_decode_stream,
    flicker_index,
)
from .training import EaszTrainer, TrainingResult, reconstruction_loss
from .transport import (
    load_package,
    pack_compressed,
    pack_package,
    save_package,
    unpack_compressed,
    unpack_package,
)

__all__ = [
    "EaszConfig",
    "RateControlResult",
    "BitrateController",
    "BandwidthAdaptiveController",
    "EraseRatioSchedule",
    "MaskSpec",
    "encode_mask",
    "decode_mask",
    "pack_mask_bits",
    "unpack_mask_bits",
    "saliency_map",
    "allocate_erase_levels",
    "RoiCompressed",
    "RoiEaszEncoder",
    "RoiEaszDecoder",
    "RoiEaszCodec",
    "StreamReport",
    "EaszStreamEncoder",
    "EaszStreamDecoder",
    "encode_decode_stream",
    "flicker_index",
    "pack_package",
    "unpack_package",
    "pack_compressed",
    "unpack_compressed",
    "save_package",
    "load_package",
    "RowConditionalSampler",
    "proposed_mask",
    "random_mask",
    "diagonal_mask",
    "uniform_mask",
    "mask_erase_ratio",
    "serialize_mask",
    "deserialize_mask",
    "image_to_patches",
    "patches_to_image",
    "patch_to_subpatches",
    "subpatches_to_patch",
    "subpatches_to_tokens",
    "tokens_to_subpatches",
    "attention_complexity",
    "BlockGatherPlan",
    "SqueezePlan",
    "get_squeeze_plan",
    "erase_and_squeeze_image",
    "unsqueeze_image",
    "squeezed_shape",
    "validate_balanced_mask",
    "EaszReconstructor",
    "FusedBatchEngine",
    "PixelIndexPlan",
    "get_pixel_plan",
    "reconstruct_image",
    "reconstruct_batch",
    "EaszTrainer",
    "TrainingResult",
    "reconstruction_loss",
    "EaszEncoder",
    "EaszDecoder",
    "EaszCodec",
    "EaszCompressed",
]
