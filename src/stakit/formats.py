"""File formats: JSON matrices, JSON-lines records, CSV annotations.

Writers emit keys in a fixed order and floats through json's shortest
round-trip repr, so writing, reading and writing again reproduces the
file byte for byte.  Readers raise InputError carrying the file, line
and field behind a failure so the CLI can report it mechanically.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .affordance import CategoricalDistribution, ClipRecord, Zone
from .attention import AttentionWeights, MlpWeights
from .curation import ActionSegment, BoxAnnotation, STARecord
from .evaluation import EvalReport, GroundTruth
from .hotspot import Detection, HotspotMap
from .linalg import as_grid, as_matrix

__all__ = [
    "InputError",
    "matrix_to_json",
    "matrix_from_json",
    "grid_to_json",
    "grid_from_json",
    "attention_weights_to_json",
    "attention_weights_from_json",
    "mlp_weights_to_json",
    "mlp_weights_from_json",
    "distribution_to_json",
    "distribution_from_json",
    "read_clips",
    "write_clips",
    "write_zone_db",
    "read_zone_db",
    "read_detections",
    "write_detections",
    "read_ground_truth",
    "write_ground_truth",
    "read_hotspot_maps",
    "write_hotspot_maps",
    "write_sta_records",
    "read_boxes_csv",
    "read_segments_csv",
    "write_eval_report",
    "read_eval_report",
    "read_json",
    "write_json",
]


class InputError(ValueError):
    """A parse failure that knows where it happened."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, field: str | None = None):
        super().__init__(message)
        self.path = path
        self.line = line
        self.field = field

    def __str__(self) -> str:
        where = []
        if self.path is not None:
            where.append(str(self.path))
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.field is not None:
            where.append(f"field {self.field!r}")
        prefix = ": ".join([", ".join(where)]) if where else ""
        base = super().__str__()
        return f"{prefix}: {base}" if prefix else base


def _require(record: dict, field: str, path=None, line=None):
    if field not in record:
        raise InputError(f"missing required field", path=path, line=line, field=field)
    return record[field]


def _convert(record: dict, field: str, convert, path=None, line=None):
    """convert(record[field]); a value that convert rejects is reported at the field."""
    value = _require(record, field, path, line)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc), path=path, line=line, field=field) from exc


def _vector(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _float_list(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64).ravel()]


# --------------------------------------------------------------------------
# matrices and grids


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": _float_list(m)}


def matrix_from_json(obj: dict, *, path=None) -> np.ndarray:
    rows = int(_require(obj, "rows", path))
    cols = int(_require(obj, "cols", path))
    data = _require(obj, "data", path)
    if len(data) != rows * cols:
        raise InputError(f"expected {rows * cols} entries, got {len(data)}", path=path, field="data")
    return as_matrix(np.asarray(data, dtype=np.float64).reshape(rows, cols))


def grid_to_json(g: np.ndarray) -> dict:
    g = as_grid(g)
    return {"h": g.shape[0], "w": g.shape[1], "c": g.shape[2], "data": _float_list(g)}


def grid_from_json(obj: dict, *, path=None) -> np.ndarray:
    h = int(_require(obj, "h", path))
    w = int(_require(obj, "w", path))
    c = int(_require(obj, "c", path))
    data = _require(obj, "data", path)
    if len(data) != h * w * c:
        raise InputError(f"expected {h * w * c} entries, got {len(data)}", path=path, field="data")
    return as_grid(np.asarray(data, dtype=np.float64).reshape(h, w, c))


# --------------------------------------------------------------------------
# attention weights ("w_q.h0", "w_k.h0", ..., "w_o" / "mlp.0", "mlp.0.b", ...)


def attention_weights_to_json(w: AttentionWeights, prefix: str = "") -> dict:
    out = {}
    for h in range(w.heads):
        out[f"{prefix}w_q.h{h}"] = matrix_to_json(w.w_q[h])
        out[f"{prefix}w_k.h{h}"] = matrix_to_json(w.w_k[h])
        out[f"{prefix}w_v.h{h}"] = matrix_to_json(w.w_v[h])
    out[f"{prefix}w_o"] = matrix_to_json(w.w_o)
    return out


def attention_weights_from_json(obj: dict, prefix: str = "", *, path=None) -> AttentionWeights:
    heads = 0
    while f"{prefix}w_q.h{heads}" in obj:
        heads += 1
    if heads == 0:
        raise InputError("no per-head weights found", path=path, field=f"{prefix}w_q.h0")
    take = lambda key: matrix_from_json(_require(obj, key, path), path=path)
    return AttentionWeights(
        w_q=[take(f"{prefix}w_q.h{h}") for h in range(heads)],
        w_k=[take(f"{prefix}w_k.h{h}") for h in range(heads)],
        w_v=[take(f"{prefix}w_v.h{h}") for h in range(heads)],
        w_o=take(f"{prefix}w_o"),
    )


def mlp_weights_to_json(m: MlpWeights, prefix: str = "mlp.") -> dict:
    return {
        f"{prefix}0": matrix_to_json(m.w1),
        f"{prefix}0.b": matrix_to_json(m.b1[None, :]),
        f"{prefix}1": matrix_to_json(m.w2),
        f"{prefix}1.b": matrix_to_json(m.b2[None, :]),
    }


def mlp_weights_from_json(obj: dict, prefix: str = "mlp.", *, path=None) -> MlpWeights:
    take = lambda key: matrix_from_json(_require(obj, key, path), path=path)
    return MlpWeights(
        w1=take(f"{prefix}0"),
        b1=take(f"{prefix}0.b")[0],
        w2=take(f"{prefix}1"),
        b2=take(f"{prefix}1.b")[0],
    )


# --------------------------------------------------------------------------
# distributions


def distribution_to_json(dist: CategoricalDistribution, vocab: list | None = None) -> dict:
    out = {"size": dist.size, "p": _float_list(dist.p)}
    if vocab is not None:
        out["vocab"] = list(vocab)
    return out


def distribution_from_json(obj: dict, *, path=None) -> CategoricalDistribution:
    p = _require(obj, "p", path)
    size = int(obj.get("size", len(p)))
    try:
        return CategoricalDistribution(size=size, p=np.asarray(p, dtype=np.float64))
    except ValueError as exc:
        raise InputError(str(exc), path=path, field="p") from exc


# --------------------------------------------------------------------------
# JSON-lines helpers


def _read_jsonl(path) -> list[tuple[int, dict]]:
    rows = []
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc.msg}", path=str(path), line=line_no) from exc
        if not isinstance(obj, dict):
            raise InputError("each line must hold a JSON object", path=str(path), line=line_no)
        rows.append((line_no, obj))
    return rows


def _write_lines(path, dicts) -> None:
    text = "".join(json.dumps(d) + "\n" for d in dicts)
    Path(path).write_text(text)


def _box_from(obj, path, line) -> tuple:
    box = _require(obj, "box", path, line)
    if not isinstance(box, list) or len(box) != 4:
        raise InputError("box must be [x1, y1, x2, y2]", path=path, line=line, field="box")
    return tuple(float(v) for v in box)


# --------------------------------------------------------------------------
# clips and zones


def read_clips(path) -> list[ClipRecord]:
    clips = []
    for line_no, obj in _read_jsonl(path):
        clips.append(ClipRecord(
            clip_id=str(_require(obj, "clip", str(path), line_no)),
            visual=_convert(obj, "visual", _vector, str(path), line_no),
            text=None if obj.get("text") is None
            else _convert(obj, "text", _vector, str(path), line_no),
            nouns=_convert(obj, "nouns", frozenset, str(path), line_no),
            verbs=_convert(obj, "verbs", frozenset, str(path), line_no),
            video_id=str(_require(obj, "video", str(path), line_no)),
            frame_index=_convert(obj, "frame", int, str(path), line_no) if "frame" in obj else 0,
        ))
    return clips


def write_clips(path, clips: list[ClipRecord]) -> None:
    dicts = []
    for c in clips:
        dicts.append({
            "clip": c.clip_id,
            "video": c.video_id,
            "frame": c.frame_index,
            "visual": _float_list(c.visual),
            "text": None if c.text is None else _float_list(c.text),
            "nouns": sorted(c.nouns, key=str),
            "verbs": sorted(c.verbs, key=str),
        })
    _write_lines(path, dicts)


def write_zone_db(path, zones: list[Zone], noun_vocab: list, verb_vocab: list,
                  theta: float, recent: int) -> None:
    doc = {
        "zones": [
            {
                "id": z.zone_id,
                "clips": list(z.clip_ids),
                "nouns": sorted(z.nouns, key=str),
                "verbs": sorted(z.verbs, key=str),
                "visual": _float_list(z.visual),
                "text": None if z.text is None else _float_list(z.text),
            }
            for z in zones
        ],
        "noun_vocab": list(noun_vocab),
        "verb_vocab": list(verb_vocab),
        "params": {"theta": theta, "M": recent},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_zone_db(path) -> tuple[list[Zone], list, list, dict]:
    obj = read_json(path)
    zones = []
    for i, z in enumerate(obj.get("zones", [])):
        try:
            zones.append(Zone(
                zone_id=str(_require(z, "id", str(path))),
                clip_ids=[str(c) for c in _convert(z, "clips", list, str(path))]
                if "clips" in z else [],
                nouns=_convert(z, "nouns", set, str(path)),
                verbs=_convert(z, "verbs", set, str(path)),
                visual=_convert(z, "visual", _vector, str(path)),
                text=None if z.get("text") is None else _convert(z, "text", _vector, str(path)),
            ))
        except InputError as exc:
            exc.field = f"zones[{i}].{exc.field}"
            raise
    return zones, list(obj.get("noun_vocab", [])), list(obj.get("verb_vocab", [])), dict(obj.get("params", {}))


# --------------------------------------------------------------------------
# detections, ground truth, hotspot maps


def _detection_dict(d: Detection) -> dict:
    out = {
        "uid": d.uid,
        "box": [float(v) for v in d.box],
        "noun": d.noun,
        "verb": d.verb,
        "ttc": float(d.ttc),
        "score": float(d.score),
    }
    if d.noun_probs is not None:
        out["noun_probs"] = _float_list(d.noun_probs)
    if d.verb_probs is not None:
        out["verb_probs"] = _float_list(d.verb_probs)
    return out


def read_detections(path) -> list[Detection]:
    dets = []
    for line_no, obj in _read_jsonl(path):
        try:
            dets.append(Detection(
                uid=str(_require(obj, "uid", str(path), line_no)),
                box=_box_from(obj, str(path), line_no),
                noun=_require(obj, "noun", str(path), line_no),
                verb=_require(obj, "verb", str(path), line_no),
                ttc=_convert(obj, "ttc", float, str(path), line_no),
                score=_convert(obj, "score", float, str(path), line_no),
                noun_probs=None if obj.get("noun_probs") is None
                else np.asarray(obj["noun_probs"], dtype=np.float64),
                verb_probs=None if obj.get("verb_probs") is None
                else np.asarray(obj["verb_probs"], dtype=np.float64),
            ))
        except ValueError as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(str(exc), path=str(path), line=line_no) from exc
    return dets


def write_detections(path, dets: list[Detection]) -> None:
    _write_lines(path, [_detection_dict(d) for d in dets])


def read_ground_truth(path) -> list[GroundTruth]:
    gts = []
    for line_no, obj in _read_jsonl(path):
        try:
            gts.append(GroundTruth(
                uid=str(_require(obj, "uid", str(path), line_no)),
                box=_box_from(obj, str(path), line_no),
                noun=_require(obj, "noun", str(path), line_no),
                verb=_require(obj, "verb", str(path), line_no),
                ttc=_convert(obj, "ttc", float, str(path), line_no),
            ))
        except ValueError as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(str(exc), path=str(path), line=line_no) from exc
    return gts


def write_ground_truth(path, gts: list[GroundTruth]) -> None:
    dicts = [{
        "uid": g.uid,
        "box": [float(v) for v in g.box],
        "noun": g.noun,
        "verb": g.verb,
        "ttc": float(g.ttc),
    } for g in gts]
    _write_lines(path, dicts)


def read_hotspot_maps(path) -> dict[str, HotspotMap]:
    maps: dict[str, HotspotMap] = {}
    for line_no, obj in _read_jsonl(path):
        uid = str(_require(obj, "uid", str(path), line_no))
        if uid in maps:
            raise InputError(f"duplicate hotspot map for image {uid!r}",
                             path=str(path), line=line_no, field="uid")
        h = _convert(obj, "h", int, str(path), line_no)
        w = _convert(obj, "w", int, str(path), line_no)
        p = _convert(obj, "p", _vector, str(path), line_no)
        if p.shape != (h * w,):
            raise InputError(f"expected {h * w} probabilities, got shape {p.shape}",
                             path=str(path), line=line_no, field="p")
        try:
            maps[uid] = HotspotMap(uid=uid, p=p.reshape(h, w))
        except ValueError as exc:
            raise InputError(str(exc), path=str(path), line=line_no, field="p") from exc
    return maps


def write_hotspot_maps(path, maps) -> None:
    items = maps.values() if isinstance(maps, dict) else maps
    dicts = [{"uid": m.uid, "h": m.h, "w": m.w, "p": _float_list(m.p)} for m in items]
    _write_lines(path, dicts)


# --------------------------------------------------------------------------
# curated records


def sta_record_uid(r: STARecord) -> str:
    return f"{r.video_id}_{r.frame:07d}"


def write_sta_records(path, records: list[STARecord]) -> None:
    dicts = [{
        "uid": sta_record_uid(r),
        "video": r.video_id,
        "frame": r.frame,
        "box": [float(v) for v in r.box],
        "noun": r.noun,
        "verb": r.verb,
        "ttc": float(r.ttc),
        "split": r.split,
    } for r in records]
    _write_lines(path, dicts)


# --------------------------------------------------------------------------
# CSV annotations


def _open_csv(path, expected_cols: int, numeric_probe: int):
    """Yield (line_no, row) skipping an optional header row."""
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != expected_cols:
                raise InputError(f"expected {expected_cols} columns, got {len(row)}",
                                 path=str(path), line=line_no)
            if line_no == 1:
                try:
                    float(row[numeric_probe])
                except ValueError:
                    continue  # header row
            yield line_no, row


def read_boxes_csv(path) -> list[BoxAnnotation]:
    """Columns: video_id, frame, noun, x1, y1, x2, y2."""
    boxes = []
    for line_no, row in _open_csv(path, 7, 1):
        try:
            boxes.append(BoxAnnotation(
                video_id=row[0].strip(),
                frame=int(row[1]),
                noun=row[2].strip(),
                box=(float(row[3]), float(row[4]), float(row[5]), float(row[6])),
            ))
        except ValueError as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(str(exc), path=str(path), line=line_no) from exc
    return boxes


def read_segments_csv(path) -> list[ActionSegment]:
    """Columns: video_id, start, stop, verb, noun."""
    segments = []
    for line_no, row in _open_csv(path, 5, 1):
        try:
            segments.append(ActionSegment(
                video_id=row[0].strip(),
                start=int(row[1]),
                stop=int(row[2]),
                verb=row[3].strip(),
                noun=row[4].strip(),
            ))
        except ValueError as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(str(exc), path=str(path), line=line_no) from exc
    return segments


# --------------------------------------------------------------------------
# reports and generic JSON


def write_eval_report(path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n")


def read_eval_report(path) -> EvalReport:
    obj = read_json(path)
    return EvalReport(
        maps=dict(_require(obj, "maps", str(path))),
        per_class={k: dict(v) for k, v in obj.get("per_class", {}).items()},
        counts=dict(obj.get("counts", {})),
        params=dict(obj.get("params", {})),
    )


def read_json(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno) from exc
    if not isinstance(obj, dict):
        raise InputError("expected a JSON object at the top level", path=str(path))
    return obj


def write_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
