from .frames import GrayFrame, frame_shape, load_frame, load_rgb_frame, write_pgm
from .hornschunck import FlowField, FlowParams, NonFiniteFlowError, check_frame_shapes, estimate_flow, stack_size
from .hornschunck import bilinear_resize, warp_bilinear
from .strain import StrainMap, compute_strain
from .flowimage import (
    OpticalFlowImage,
    NormalizationRecord,
    assemble_flow_image,
    read_flow_image,
    write_flow_image,
    FLOW_CLIP,
    STRAIN_CLIP,
)

__all__ = [
    "GrayFrame",
    "frame_shape",
    "load_frame",
    "load_rgb_frame",
    "write_pgm",
    "FlowField",
    "FlowParams",
    "NonFiniteFlowError",
    "check_frame_shapes",
    "estimate_flow",
    "stack_size",
    "bilinear_resize",
    "warp_bilinear",
    "StrainMap",
    "compute_strain",
    "OpticalFlowImage",
    "NormalizationRecord",
    "assemble_flow_image",
    "read_flow_image",
    "write_flow_image",
    "FLOW_CLIP",
    "STRAIN_CLIP",
]
