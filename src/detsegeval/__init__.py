"""detsegeval: composite F1/F2 scoring and deterministic ensemble
post-processing for single-class COCO detection and instance
segmentation."""

__version__ = "0.1.0"

from .coco import (  # noqa: F401
    DETECTION,
    SEGMENTATION,
    Dataset,
    GroundTruthInstance,
    ImageRecord,
    PredictionInstance,
    PredictionSet,
    ValidationReport,
    load_ground_truth,
    load_predictions,
)
from .geometry import (  # noqa: F401
    BBox,
    Component,
    PolygonSet,
    RunMask,
    box_iou,
    connected_components,
    mask_iou,
    morphology,
    polygon_area,
    polygon_to_bbox,
    rasterize,
    rasterize_runs,
    rasterize_runs_many,
    simplify_polygon,
    trace_largest_contour,
)
from .metrics import (  # noqa: F401
    ConfusionCounts,
    MetricsReport,
    evaluate,
    f_beta,
    final_score,
    leaderboard,
    match_image,
)
from .fusion import (  # noqa: F401
    FusionParams,
    average_mask_ensemble,
    confidence_filter,
    cross_model_merge,
    detection_guided_filter,
    fuse_seg_det_scores,
    merge_boxes_iou_ioa,
    refine_segmentation,
    run_preset,
    soft_mask_merge,
    weighted_box_fusion,
)
