"""File formats: JSON matrices, JSON-lines records, CSV annotations.

Writers emit keys in a fixed order and floats through json's shortest
round-trip repr, so writing, reading and writing again reproduces the
file byte for byte.  Readers pass each field through one converter that
names the field when it fails.  JSON-lines and CSV files go through one
record loop that streams the file line by line as UTF-8, so memory holds
one line plus the records built, and adds file and line to any failure;
each JSON line is decoded by json's C scanner directly, and by json.loads
whenever that fails.  The detection reader, which batch evaluation runs on
every shard, decodes every line first, checks each field as a whole
column, and returns one Detections table; a file that fails a column
check is read again record by record through the converters, which raise
the located error of its earliest faulty record.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import reprlib
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .affordance import CategoricalDistribution, ClipRecord, Zone, ZoneIndex
from .attention import AttentionWeights, MlpWeights
from .curation import ActionSegment, BoxAnnotation, STARecord
from .evaluation import EvalReport, GroundTruth
from .hotspot import Detection, Detections, HotspotMap
from .linalg import as_matrix

__all__ = [
    "InputError",
    "matrix_to_json",
    "matrix_from_json",
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
    "read_descriptor",
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
        self.path, self.line, self.field = path, line, field

    def __str__(self) -> str:
        where = [str(self.path)] if self.path is not None else []
        where += [f"line {self.line}"] if self.line is not None else []
        where += [f"field {self.field!r}"] if self.field is not None else []
        return f"{', '.join(where)}: {self.args[0]}" if where else self.args[0]


_BAD_VALUE = (TypeError, ValueError, OverflowError, RecursionError)  # what bad input makes parsing raise
_NUMBER = frozenset({int, float})  # the types json gives a JSON number; not str, and not bool, a subclass of int
_LABEL = frozenset({str, int})  # the types a label may have; not bool either
_scan_once = json.JSONDecoder().scan_once  # the C scanner that json.loads runs, without its Python wrapper
_REQUIRED = object()


def _located(exc: Exception, field: str | None = None, path=None, line=None) -> InputError:
    """exc as an InputError at path and line; a field it already names goes under field."""
    if isinstance(exc, json.JSONDecodeError):
        exc = InputError(f"invalid JSON: {exc.msg}", line=line or exc.lineno)
    elif not isinstance(exc, InputError):
        exc = InputError(str(exc))
    if field is not None:
        exc.field = field if exc.field is None else f"{field}.{exc.field}"
    exc.path, exc.line = exc.path or path, exc.line or line
    return exc


def _at(build, value, *args, field: str | None = None, path=None):
    """build(value, *args); a failure is reported at path, under field."""
    try:
        return build(value, *args)
    except _BAD_VALUE as exc:
        raise _located(exc, field, path)


def _require(record, field: str):
    try:
        return record[field]
    except (KeyError, TypeError):
        _object(record)
        raise InputError("missing required field", field=field) from None


def _convert(record, field: str, convert, *args, default=_REQUIRED):
    """convert(record[field], *args) at the field; a field given a default may be absent or null."""
    if default is not _REQUIRED and _object(record).get(field) is None:
        return default
    value = _require(record, field)
    try:
        return convert(value, *args)
    except _BAD_VALUE as exc:
        raise _located(exc, field)


# field converters: each takes one decoded JSON value and rejects what its field cannot hold
def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {reprlib.repr(value)}")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {reprlib.repr(value)}")
    return value


def _int(value) -> int:
    """A nonnegative JSON integer: not 1.5, "2" or true."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a nonnegative integer, got {reprlib.repr(value)}")
    return value


def _float(value) -> float:
    """A JSON number: not "1.5", true or null."""
    if type(value) not in _NUMBER:
        raise TypeError(f"expected a number, got {reprlib.repr(value)}")
    return float(value)


def _label(value):
    if type(value) not in _LABEL:
        raise TypeError(f"expected a string or integer label, got {reprlib.repr(value)}")
    return value


def _labels(value) -> list:
    return [_label(v) for v in _list(value)]


def _vector(value, length: int | None = None) -> np.ndarray:
    if type(value) is not list or not _NUMBER.issuperset(map(type, value)):
        raise ValueError(f"expected a list of numbers, got {reprlib.repr(value)}")
    v = np.asarray(value, dtype=np.float64)
    if not np.isfinite(v).all():  # NaN, Infinity and numbers past float64's range
        raise ValueError(f"entries must be finite numbers, got {reprlib.repr(value)}")
    if length is not None and len(v) != length:
        raise ValueError(f"expected {length} entries, got {len(v)}")
    return v


def _descriptor(value, length: int | None = None) -> np.ndarray:
    """A vector whose squared norm, which retrieval computes, fits in float64 too."""
    v = _vector(value, length)
    if not math.isfinite(np.vdot(v, v)):  # vdot, unlike dot, overflows without a RuntimeWarning
        raise ValueError(f"squared norm overflows float64, got {reprlib.repr(value)}")
    return v


def _box(value) -> tuple:
    """Four JSON numbers, unpacked and checked one by one, which is faster than a loop over four."""
    if type(value) is list and len(value) == 4:
        x1, y1, x2, y2 = value
        if type(x1) in _NUMBER and type(y1) in _NUMBER and type(x2) in _NUMBER and type(y2) in _NUMBER:
            return float(x1), float(y1), float(x2), float(y2)
    raise ValueError(f"box must be [x1, y1, x2, y2], got {reprlib.repr(value)}")


def _float_list(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64).ravel()]


# --------------------------------------------------------------------------
# matrices


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": _float_list(m)}


def _matrix(obj) -> np.ndarray:
    rows, cols = _convert(obj, "rows", _int), _convert(obj, "cols", _int)
    return as_matrix(_convert(obj, "data", _vector, rows * cols).reshape(rows, cols))


def matrix_from_json(obj: dict, *, path=None) -> np.ndarray:
    return _at(_matrix, obj, path=path)


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


def _attention_weights(obj, prefix: str) -> AttentionWeights:
    heads = next(h for h in itertools.count(1) if f"{prefix}w_q.h{h}" not in _object(obj))
    take = lambda key: _convert(obj, key, matrix_from_json)
    return AttentionWeights(
        w_q=[take(f"{prefix}w_q.h{h}") for h in range(heads)],
        w_k=[take(f"{prefix}w_k.h{h}") for h in range(heads)],
        w_v=[take(f"{prefix}w_v.h{h}") for h in range(heads)],
        w_o=take(f"{prefix}w_o"),
    )


def attention_weights_from_json(obj: dict, prefix: str = "", *, path=None) -> AttentionWeights:
    return _at(_attention_weights, obj, prefix, path=path)


def mlp_weights_to_json(m: MlpWeights, prefix: str = "mlp.") -> dict:
    return {
        f"{prefix}0": matrix_to_json(m.w1),
        f"{prefix}0.b": matrix_to_json(m.b1[None, :]),
        f"{prefix}1": matrix_to_json(m.w2),
        f"{prefix}1.b": matrix_to_json(m.b2[None, :]),
    }


def mlp_weights_from_json(obj: dict, prefix: str = "mlp.", *, path=None) -> MlpWeights:
    w1, b1, w2, b2 = [_at(_convert, obj, f"{prefix}{key}", matrix_from_json, path=path)
                      for key in ("0", "0.b", "1", "1.b")]
    return _at(MlpWeights, w1, b1.ravel(), w2, b2.ravel(), path=path)


# --------------------------------------------------------------------------
# distributions


def distribution_to_json(dist: CategoricalDistribution, vocab: list | None = None) -> dict:
    out = {"size": dist.size, "p": _float_list(dist.p)}
    if vocab is not None:
        out["vocab"] = list(vocab)
    return out


def _distribution(obj) -> CategoricalDistribution:
    p = _convert(obj, "p", _vector)
    size = _convert(obj, "size", _int, default=len(p))
    if len(p) != size:
        raise InputError(f"expected {size} probabilities, got shape {p.shape}", field="p")
    return _at(CategoricalDistribution, p, field="p")


def distribution_from_json(obj: dict, *, path=None) -> CategoricalDistribution:
    return _at(_distribution, obj, path=path)


# --------------------------------------------------------------------------
# record files: JSON lines and CSV


def _decode(line: str):
    """json.loads(line): one JSON value, with nothing but JSON whitespace after it.

    The scanner decodes the value from the first character on; a line it
    cannot take whole, leading whitespace or a byte order mark included, goes
    to json.loads, which decodes it or raises the error it always raises.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return value


def _records(path, build, columns: int | None = None):
    """Yield build(record) per record of a JSON-lines file or, given columns, a CSV file.

    The file is read line by line as UTF-8; lines end at \\n, \\r\\n or \\r.
    Blank lines are skipped, and so is a CSV first row whose column 2 is
    no number (a header).  A failure is reported at its line, except text
    that is not UTF-8, which is reported at the file.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = fh if columns is None else csv.reader(fh)
        line = 0
        try:
            for record in rows:
                line = line + 1 if columns is None else rows.line_num
                if columns is None:
                    if record.strip():
                        yield build(_decode(record))
                elif "".join(record).strip():
                    if len(record) != columns:
                        raise ValueError(f"expected {columns} columns, got {len(record)}")
                    if line == 1:
                        try:
                            float(record[1])
                        except ValueError:
                            continue  # header row
                    yield build(record)
        except UnicodeDecodeError as exc:  # text is decoded block by block, so its position is no line
            raise InputError(f"not {exc.encoding} text: {exc.reason}", path=str(path)) from None
        except (*_BAD_VALUE, csv.Error) as exc:  # a csv.Error comes while a row is split, before line is set
            raise _located(exc, path=str(path), line=line if columns is None else rows.line_num)


def _write_lines(path, dicts) -> None:
    """Write one JSON line per dict, each as soon as it is built."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(json.dumps(d) + "\n")


# --------------------------------------------------------------------------
# clips and zones


def read_clips(path) -> list[ClipRecord]:
    """The clips in file order; clip 0's visual sets the length of every visual and text."""
    length = None

    def clip(obj) -> ClipRecord:
        nonlocal length
        clip_id = str(_require(obj, "clip"))
        visual = _convert(obj, "visual", _descriptor, length)
        length = len(visual)
        return ClipRecord(
            clip_id=clip_id,
            visual=visual,
            text=_convert(obj, "text", _descriptor, length, default=None),
            nouns=frozenset(_convert(obj, "nouns", _labels)),
            verbs=frozenset(_convert(obj, "verbs", _labels)),
            video_id=str(_require(obj, "video")),
            frame_index=_convert(obj, "frame", _int, default=0),
        )

    return list(_records(path, clip))


def write_clips(path, clips: list[ClipRecord]) -> None:
    _write_lines(path, ({
        "clip": c.clip_id,
        "video": c.video_id,
        "frame": c.frame_index,
        "visual": _float_list(c.visual),
        "text": None if c.text is None else _float_list(c.text),
        "nouns": sorted(c.nouns, key=str),
        "verbs": sorted(c.verbs, key=str),
    } for c in clips))


def write_zone_db(path, zones: Iterable[Zone], noun_vocab: list, verb_vocab: list,
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


def _zone(z, length: int | None) -> Zone:
    return Zone(
        zone_id=str(_require(z, "id")),
        clip_ids=[str(c) for c in _convert(z, "clips", _labels, default=[])],
        nouns=set(_convert(z, "nouns", _labels)),
        verbs=set(_convert(z, "verbs", _labels)),
        visual=(visual := _convert(z, "visual", _descriptor, length)),
        text=_convert(z, "text", _descriptor, len(visual), default=None),
    )


def _zone_db(obj) -> tuple[ZoneIndex, list, list, dict]:
    entries = _convert(obj, "zones", _list, default=[])
    zones, ids = [], set()
    for i, z in enumerate(entries):
        zone = _at(_zone, z, len(zones[0].visual) if zones else None, field=f"zones[{i}]")
        if zone.zone_id in ids:
            raise InputError(f"duplicate zone id {zone.zone_id!r}", field=f"zones[{i}].id")
        ids.add(zone.zone_id)
        zones.append(zone)
        entries[i] = None  # the decoded entry goes, so its lists are not held beside the zone's vectors
    return (ZoneIndex(zones), _convert(obj, "noun_vocab", _labels, default=[]),
            _convert(obj, "verb_vocab", _labels, default=[]),
            dict(_convert(obj, "params", _object, default={})))


def read_zone_db(path) -> tuple[ZoneIndex, list, list, dict]:
    """The zones as a ZoneIndex; the vocabularies; params.  Zone ids must be unique."""
    return _at(_zone_db, read_json(path), path=str(path))


def read_descriptor(path, length: int | None = None) -> np.ndarray:
    """The "visual" vector of a query file, holding length entries when given."""
    return _at(_convert, read_json(path), "visual", _descriptor, length, path=str(path))


# --------------------------------------------------------------------------
# detections, ground truth, hotspot maps


def _detection_dict(uid, box: list, noun, verb, ttc: float, score: float, noun_probs, verb_probs) -> dict:
    out = {"uid": uid, "box": box, "noun": noun, "verb": verb, "ttc": ttc, "score": score}
    if noun_probs is not None:
        out["noun_probs"] = _float_list(noun_probs)
    if verb_probs is not None:
        out["verb_probs"] = _float_list(verb_probs)
    return out


def _detection_fields(obj) -> Detection:
    """A detection built field by field through the converters, so a failure names its field."""
    return Detection(
        uid=str(_require(obj, "uid")),
        box=_convert(obj, "box", _box),
        noun=_convert(obj, "noun", _label),
        verb=_convert(obj, "verb", _label),
        ttc=_convert(obj, "ttc", _float),
        score=_convert(obj, "score", _float),
        noun_probs=_convert(obj, "noun_probs", _vector, default=None),
        verb_probs=_convert(obj, "verb_probs", _vector, default=None),
    )


def _only(types: frozenset, values) -> None:
    if not types.issuperset(map(type, values)):
        raise TypeError(f"expected only values of the types {sorted(t.__name__ for t in types)}")


def _detection_table(records: list) -> Detections:
    """The records as one table, each field of _detection_fields checked over its whole column at once.

    Raises a bare error on any record that _detection_fields rejects.
    """
    uids = [str(r["uid"]) for r in records]  # first, so that a record that is no JSON object fails here
    boxes = [r["box"] for r in records]
    _only(frozenset({list}), boxes)
    _only(_NUMBER, itertools.chain.from_iterable(boxes))  # four of them each: the table takes (n, 4) only
    nouns, verbs = [r["noun"] for r in records], [r["verb"] for r in records]
    ttc, scores = [r["ttc"] for r in records], [r["score"] for r in records]
    for column, types in ((nouns, _LABEL), (verbs, _LABEL), (ttc, _NUMBER), (scores, _NUMBER)):
        _only(types, column)
    probs = []
    for key in ("noun_probs", "verb_probs"):
        vectors = [r.get(key) for r in records]
        probs.append(None if vectors.count(None) == len(vectors) else
                     [None if v is None else _vector(v) for v in vectors])
    return Detections(uids, boxes, nouns, verbs, ttc, scores, *probs)


def read_detections(path) -> Detections:
    """The detections of a JSON-lines file, as one table in file order."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return _detection_table([_decode(line) for line in fh if line.strip()])
    except (LookupError, *_BAD_VALUE):
        for _ in _records(path, _detection_fields):
            pass
        raise AssertionError(f"{path}: the column checks rejected records that pass every field check") from None


def write_detections(path, dets) -> None:
    """Write a Detections table, or Detection rows, one JSON line each."""
    dets = Detections.of(dets)
    _write_lines(path, itertools.starmap(_detection_dict, zip(
        dets.uids, dets.boxes.tolist(), dets.nouns, dets.verbs, dets.ttc.tolist(), dets.scores.tolist(),
        dets.noun_probs, dets.verb_probs)))


def _ground_truth(obj) -> GroundTruth:
    """A ground-truth record built field by field through the converters, so a failure names its field."""
    return GroundTruth(
        uid=str(_require(obj, "uid")),
        box=_convert(obj, "box", _box),
        noun=_convert(obj, "noun", _label),
        verb=_convert(obj, "verb", _label),
        ttc=_convert(obj, "ttc", _float),
    )


def read_ground_truth(path) -> list[GroundTruth]:
    return list(_records(path, _ground_truth))


def write_ground_truth(path, gts: list[GroundTruth]) -> None:
    _write_lines(path, ({
        "uid": g.uid,
        "box": [float(v) for v in g.box],
        "noun": g.noun,
        "verb": g.verb,
        "ttc": float(g.ttc),
    } for g in gts))


def _hotspot_map(obj, maps: dict) -> HotspotMap:
    """One line's map, whose uid must not be among maps, those of the lines before."""
    uid = str(_require(obj, "uid"))
    if uid in maps:
        raise InputError(f"duplicate hotspot map for image {uid!r}", field="uid")
    h, w = _convert(obj, "h", _int), _convert(obj, "w", _int)
    return _convert(obj, "p", lambda p: HotspotMap(uid, _vector(p, h * w).reshape(h, w)))


def read_hotspot_maps(path) -> dict[str, HotspotMap]:
    maps: dict[str, HotspotMap] = {}
    for hotspot in _records(path, lambda obj: _hotspot_map(obj, maps)):
        maps[hotspot.uid] = hotspot
    return maps


def write_hotspot_maps(path, maps) -> None:
    items = maps.values() if isinstance(maps, dict) else maps
    _write_lines(path, ({"uid": m.uid, "h": m.h, "w": m.w, "p": _float_list(m.p)} for m in items))


# --------------------------------------------------------------------------
# curated records


def sta_record_uid(r: STARecord) -> str:
    return f"{r.video_id}_{r.frame:07d}"


def write_sta_records(path, records: list[STARecord]) -> None:
    _write_lines(path, ({
        "uid": sta_record_uid(r),
        "video": r.video_id,
        "frame": r.frame,
        "box": [float(v) for v in r.box],
        "noun": r.noun,
        "verb": r.verb,
        "ttc": float(r.ttc),
        "split": r.split,
    } for r in records))


# --------------------------------------------------------------------------
# CSV annotations


def read_boxes_csv(path) -> list[BoxAnnotation]:
    """Columns: video_id, frame, noun, x1, y1, x2, y2."""
    return list(_records(path, lambda row: BoxAnnotation(
        video_id=row[0].strip(),
        frame=int(row[1]),
        noun=row[2].strip(),
        box=(float(row[3]), float(row[4]), float(row[5]), float(row[6])),
    ), columns=7))


def read_segments_csv(path) -> list[ActionSegment]:
    """Columns: video_id, start, stop, verb, noun."""
    return list(_records(path, lambda row: ActionSegment(
        video_id=row[0].strip(),
        start=int(row[1]),
        stop=int(row[2]),
        verb=row[3].strip(),
        noun=row[4].strip(),
    ), columns=5))


# --------------------------------------------------------------------------
# reports and generic JSON


def write_eval_report(path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n")


def read_eval_report(path) -> EvalReport:
    return _at(lambda obj: EvalReport(
        maps=_convert(obj, "maps", lambda maps: {k: _float(v) for k, v in _object(maps).items()}),
        per_class={k: dict(v) for k, v in _convert(obj, "per_class", _object, default={}).items()},
        counts=dict(_convert(obj, "counts", _object, default={})),
        params=dict(_convert(obj, "params", _object, default={})),
    ), read_json(path), path=str(path))


def read_json(path) -> dict:
    return _at(lambda path: _object(json.loads(Path(path).read_text())), path, path=str(path))


def write_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
