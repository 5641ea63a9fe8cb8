"""LiDAR-camera extrinsic calibration from lane and pole line features."""

from .cloud_features import (
    FeatureSetCloud,
    GroundParallelFrame,
    GroundSegmentation,
    PointCloud,
    extract_cloud_features,
    fit_ground_plane,
    ground_parallel_rotation,
    ransac_line3d,
)
from .config import PipelineConfig, RefinementConfig, load_config
from .cost import CostEvaluator
from .geometry import (
    Extrinsic,
    Intrinsics,
    Line2D,
    Line3D,
    Plane3D,
    angle_axis_to_matrix,
    backproject_line,
    euler_zyx,
    matrix_to_angle_axis,
    rotation_geodesic,
)
from .image_features import (
    FeatureSetImage,
    HeightMap,
    SemanticMask,
    extract_image_features,
    hough_lines,
    idt_height_map,
    l1_distance_field,
    load_mask,
    select_principal_lines,
)
from .pipeline import calibrate, coarse_calibrate

__version__ = "0.1.0"
