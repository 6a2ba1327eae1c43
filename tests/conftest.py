import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from detsegeval.coco import DETECTION, PredictionSet
from detsegeval.geometry import PolygonSet, RunMask

sys.path.insert(0, str(Path(__file__).parent))  # for reference_impl


def write_json_file(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def traced_peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs.  scipy.ndimage is
    imported first, so its one-off import is not counted."""
    from scipy import ndimage  # noqa: F401

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_mask(mask) -> RunMask:
    """A boolean ``height x width`` array as the run mask of its set
    pixels."""
    height, width = mask.shape
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    steps = np.diff(padded, axis=1)
    rows, starts = np.nonzero(steps == 1)
    ends = np.nonzero(steps == -1)[1]
    return RunMask(width, height, rows, starts, ends)


def polygon_set(rings) -> PolygonSet:
    """The polygon set of flat ``[x1, y1, x2, y2, ...]`` rings, with every
    coordinate as a float."""
    return PolygonSet(tuple(tuple(float(v) for v in ring) for ring in rings))


def predictions_to_list(preds: PredictionSet) -> list[dict]:
    """A prediction set as the entry list of a prediction file, the list
    that a written fused file holds."""
    out = []
    for inst in preds.instances:
        entry: dict = {
            "image_id": inst.image_id,
            "category_id": inst.category_id,
            "score": inst.score,
        }
        if preds.task == DETECTION:
            entry["bbox"] = inst.bbox.as_list()
        else:
            entry["segmentation"] = inst.segmentation.as_lists()
        out.append(entry)
    return out


def make_gt(images, annotations, category=(1, "rip_current")):
    return {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": category[0], "name": category[1]}],
    }


def image(image_id, width=100, height=100):
    return {"id": image_id, "width": width, "height": height,
            "file_name": f"img_{image_id:06d}.jpg"}


def annotation(ann_id, image_id, bbox, segmentation=None, category_id=1):
    if segmentation is None:
        x, y, w, h = bbox
        segmentation = [[x, y, x + w, y, x + w, y + h, x, y + h]]
    return {"id": ann_id, "image_id": image_id, "category_id": category_id,
            "bbox": bbox, "segmentation": segmentation}


def det_pred(image_id, score, bbox, category_id=1):
    return {"image_id": image_id, "category_id": category_id,
            "score": score, "bbox": bbox}


def seg_pred(image_id, score, segmentation, category_id=1):
    return {"image_id": image_id, "category_id": category_id,
            "score": score, "segmentation": segmentation}


@pytest.fixture
def tiny_gt_path(tmp_path):
    gt = make_gt(
        [image(1), image(2)],
        [
            annotation(1, 1, [10, 10, 20, 20]),
            annotation(2, 1, [50, 50, 30, 20]),
            annotation(3, 2, [5, 5, 40, 40]),
        ],
    )
    return write_json_file(tmp_path / "gt.json", gt)
