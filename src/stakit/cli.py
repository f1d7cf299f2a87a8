"""Command-line interface.

Subcommands mirror the pipeline stages:

    stakit zones build     --clips clips.jsonl --theta 0.5 --out zones.json
    stakit afford query    --zones zones.json --desc query.json --k 4 --weighted true
    stakit afford fuse     --aff prior.json --sta predicted.json
    stakit hotspot reweight --dets dets.jsonl --maps maps.jsonl --out out.jsonl
    stakit eval sta        --dets dets.jsonl --gt gt.jsonl --report report.json
    stakit curate ek       --boxes boxes.csv --segments segments.csv --out gt.jsonl
    stakit attn check-grad --op mha --seed 3 --eps 1e-5
    stakit demo synth      --seed 7 --out demo_out

Successful runs exit 0 and print a JSON summary; failures print one
machine-readable error record to stderr and exit nonzero.  The
STAKIT_LOG environment variable sets the logging level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass

from . import demo, formats
from .affordance import (DEFAULT_K, DEFAULT_RECENT, DEFAULT_THETA, DEFAULT_WEIGHTED,
                         affordance_distribution, build_zones, descriptor_similarity_01,
                         fuse_distributions, knn_query)
from .attention import GRAD_CHECK_OPS, grad_check, random_instance
from .curation import DEFAULT_GAP, curate
from .evaluation import evaluate
from .hotspot import reweight, upsample_map

log = logging.getLogger("stakit")

_KINDS = ("nouns", "verbs")
_CHOICES = {"kind": _KINDS, "op": GRAD_CHECK_OPS, "order": demo.ORDERS}


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from flags and config file.

    Explicit flags win over the config file, which wins over built-in
    defaults.
    """

    command: str
    # file arguments
    clips: str | None = None
    zones: str | None = None
    desc: str | None = None
    aff: str | None = None
    sta: str | None = None
    dets: str | None = None
    maps: str | None = None
    gt: str | None = None
    boxes: str | None = None
    segments: str | None = None
    out: str | None = None
    report: str | None = None
    # parameters
    theta: float = DEFAULT_THETA
    recent: int = DEFAULT_RECENT
    k: int = DEFAULT_K
    weighted: bool = DEFAULT_WEIGHTED
    kind: str | None = None
    iou: float = 0.5
    ttc_tol: float = 0.25
    topk: int = 5
    fps: float = 30.0
    gap: int = DEFAULT_GAP
    split: str = "train"
    op: str | None = None
    seed: int = 0
    eps: float = 1e-5
    d_model: int = 8
    heads: int = 2
    order: str = "fuse-first"
    bilinear: bool = False
    upsample_h: int | None = None
    upsample_w: int | None = None


def _str2bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stakit", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file with default parameter values")
    groups = parser.add_subparsers(dest="group", required=True)

    zones = groups.add_parser("zones", help="zone database construction")
    zones_sub = zones.add_subparsers(dest="command", required=True)
    zb = zones_sub.add_parser("build", help="group clips into interaction zones")
    zb.add_argument("--clips", required=True)
    zb.add_argument("--theta", type=float, default=None)
    zb.add_argument("--m", dest="recent", type=int, default=None,
                    help="recent-member window per zone")
    zb.add_argument("--out", required=True)

    afford = groups.add_parser("afford", help="affordance priors")
    afford_sub = afford.add_subparsers(dest="command", required=True)
    aq = afford_sub.add_parser("query", help="retrieve zones and vote label priors")
    aq.add_argument("--zones", required=True)
    aq.add_argument("--desc", required=True, help="JSON file with a 'visual' vector")
    aq.add_argument("--k", type=int, default=None)
    aq.add_argument("--weighted", type=_str2bool, default=None)
    aq.add_argument("--out")
    af = afford_sub.add_parser("fuse", help="multiply a prior into a predicted distribution")
    af.add_argument("--aff", required=True)
    af.add_argument("--sta", required=True)
    af.add_argument("--kind", choices=_KINDS,
                    help="pick one distribution out of a query-output file")
    af.add_argument("--out")

    hotspot = groups.add_parser("hotspot", help="hotspot re-weighting")
    hotspot_sub = hotspot.add_subparsers(dest="command", required=True)
    hr = hotspot_sub.add_parser("reweight", help="scale detection scores by hotspot probability")
    hr.add_argument("--dets", required=True)
    hr.add_argument("--maps", required=True)
    hr.add_argument("--out", required=True)
    hr.add_argument("--bilinear", action="store_true", default=None)
    hr.add_argument("--upsample-h", dest="upsample_h", type=int, default=None)
    hr.add_argument("--upsample-w", dest="upsample_w", type=int, default=None)

    ev = groups.add_parser("eval", help="metrics")
    ev_sub = ev.add_subparsers(dest="command", required=True)
    es = ev_sub.add_parser("sta", help="Top-5 mAP over noun/verb/ttc criteria")
    es.add_argument("--dets", required=True)
    es.add_argument("--gt", required=True)
    es.add_argument("--iou", type=float, default=None)
    es.add_argument("--ttc-tol", dest="ttc_tol", type=float, default=None)
    es.add_argument("--topk", type=int, default=None)
    es.add_argument("--report")

    curate_p = groups.add_parser("curate", help="ground-truth curation")
    curate_sub = curate_p.add_subparsers(dest="command", required=True)
    ce = curate_sub.add_parser("ek", help="boxes + segments -> anticipation records")
    ce.add_argument("--boxes", required=True)
    ce.add_argument("--segments", required=True)
    ce.add_argument("--fps", type=float, default=None)
    ce.add_argument("--gap", type=int, default=None)
    ce.add_argument("--split", default=None)
    ce.add_argument("--out", required=True)

    attn = groups.add_parser("attn", help="attention operators")
    attn_sub = attn.add_subparsers(dest="command", required=True)
    ag = attn_sub.add_parser("check-grad", help="finite-difference gradient check")
    ag.add_argument("--op", required=True, choices=GRAD_CHECK_OPS)
    ag.add_argument("--seed", type=int, default=None)
    ag.add_argument("--eps", type=float, default=None)
    ag.add_argument("--d-model", dest="d_model", type=int, default=None)
    ag.add_argument("--heads", type=int, default=None)

    demo_p = groups.add_parser("demo", help="synthetic end-to-end run")
    demo_sub = demo_p.add_subparsers(dest="command", required=True)
    ds = demo_sub.add_parser("synth", help="seeded synthetic pipeline")
    ds.add_argument("--seed", type=int, default=None)
    ds.add_argument("--out", required=True)
    ds.add_argument("--order", choices=demo.ORDERS, default=None)
    ds.add_argument("--k", type=int, default=None)
    ds.add_argument("--weighted", type=_str2bool, default=None)
    ds.add_argument("--theta", type=float, default=None)
    ds.add_argument("--topk", type=int, default=None)

    return parser


def _read_config_file(path: str) -> dict:
    """Config-file values, held to the type and choices of the flag each replaces."""
    hints = typing.get_type_hints(RunConfig)
    values = {}
    for name, value in formats.read_json(path).items():
        if name == "command" or name not in hints:
            raise formats.InputError("unknown config key", path=path, field=name)
        want = next(t for t in typing.get_args(hints[name]) or (hints[name],)
                    if t is not type(None))
        if want is float and type(value) is int:
            value = float(value)
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise formats.InputError(f"expected {want.__name__}, got {json.dumps(value)}",
                                     path=path, field=name)
        if name in _CHOICES and value not in _CHOICES[name]:
            raise formats.InputError(f"expected one of {list(_CHOICES[name])}, got {value!r}",
                                     path=path, field=name)
        values[name] = value
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each field comes from its flag, else the config file, else RunConfig's default."""
    file_values = _read_config_file(args.config) if args.config else {}
    values = {"command": f"{args.group} {args.command}"}
    for field in dataclasses.fields(RunConfig):
        if field.name == "command":
            continue
        from_args = getattr(args, field.name, None)
        if from_args is not None:
            values[field.name] = from_args
        elif field.name in file_values:
            values[field.name] = file_values[field.name]
    return RunConfig(**values)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_zones_build(cfg: RunConfig) -> int:
    clips = formats.read_clips(cfg.clips)
    zones = build_zones(clips, descriptor_similarity_01, cfg.theta, cfg.recent)
    noun_vocab = sorted({n for c in clips for n in c.nouns}, key=str)
    verb_vocab = sorted({v for c in clips for v in c.verbs}, key=str)
    formats.write_zone_db(cfg.out, zones, noun_vocab, verb_vocab, cfg.theta, cfg.recent)
    _emit({"clips": len(clips), "zones": len(zones), "out": cfg.out})
    return 0


def _cmd_afford_query(cfg: RunConfig) -> int:
    zones, noun_vocab, verb_vocab, _ = formats.read_zone_db(cfg.zones)
    query = formats.read_descriptor(cfg.desc, len(zones[0].visual) if zones else None)
    knn = knn_query(query, zones, cfg.k)
    result = {
        "k": cfg.k,
        "weighted": cfg.weighted,
        "knn": [{"zone": e.zone_id, "similarity": e.similarity, "channel": e.channel}
                for e in knn.entries],
        "nouns": formats.distribution_to_json(
            affordance_distribution(knn, zones, noun_vocab, "noun", cfg.weighted), noun_vocab),
        "verbs": formats.distribution_to_json(
            affordance_distribution(knn, zones, verb_vocab, "verb", cfg.weighted), verb_vocab),
    }
    if cfg.out:
        formats.write_json(cfg.out, result)
    _emit(result)
    return 0


def _load_distribution(path: str, kind: str | None):
    obj = formats.read_json(path)
    if "p" not in obj and ("nouns" in obj or "verbs" in obj):
        if kind is None:
            raise formats.InputError(
                "file holds noun and verb distributions; pass --kind to pick one",
                path=path, field="kind")
        obj = obj.get(kind)
    return formats.distribution_from_json(obj, path=path), obj.get("vocab")


def _cmd_afford_fuse(cfg: RunConfig) -> int:
    prior, vocab = _load_distribution(cfg.aff, cfg.kind)
    predicted, vocab_sta = _load_distribution(cfg.sta, cfg.kind)
    if vocab and vocab_sta and vocab != vocab_sta:  # fusion multiplies by position, so labels must line up
        raise formats.InputError(f"vocabulary {vocab_sta!r} differs from the --aff file's {vocab!r}",
                                 path=cfg.sta, field="vocab")
    fused = fuse_distributions(prior, predicted)
    result = formats.distribution_to_json(fused, vocab or vocab_sta)
    if cfg.out:
        formats.write_json(cfg.out, result)
    _emit(result)
    return 0


def _cmd_hotspot_reweight(cfg: RunConfig) -> int:
    dets = formats.read_detections(cfg.dets)
    maps = formats.read_hotspot_maps(cfg.maps)
    if cfg.upsample_h is not None or cfg.upsample_w is not None:
        if cfg.upsample_h is None or cfg.upsample_w is None:
            raise ValueError("--upsample-h and --upsample-w must be given together")
        maps = {uid: upsample_map(m, cfg.upsample_h, cfg.upsample_w) for uid, m in maps.items()}
    out = reweight(dets, maps, bilinear=cfg.bilinear)
    formats.write_detections(cfg.out, out)
    _emit({"detections": len(out), "out": cfg.out})
    return 0


def _cmd_eval_sta(cfg: RunConfig) -> int:
    dets = formats.read_detections(cfg.dets)
    gts = formats.read_ground_truth(cfg.gt)
    report = evaluate(dets, gts, top_k=cfg.topk, iou_threshold=cfg.iou, ttc_tolerance=cfg.ttc_tol)
    if cfg.report:
        formats.write_eval_report(cfg.report, report)
    _emit(report.to_json())
    return 0


def _cmd_curate_ek(cfg: RunConfig) -> int:
    boxes = formats.read_boxes_csv(cfg.boxes)
    segments = formats.read_segments_csv(cfg.segments)
    records = curate(boxes, segments, gap=cfg.gap, fps=cfg.fps, split=cfg.split)
    formats.write_sta_records(cfg.out, records)
    _emit({"boxes": len(boxes), "segments": len(segments),
           "records": len(records), "out": cfg.out})
    return 0


def _cmd_attn_check_grad(cfg: RunConfig) -> int:
    inputs, weights = random_instance(cfg.op, cfg.seed, d_model=cfg.d_model, heads=cfg.heads)
    report = grad_check(cfg.op, inputs, weights, cfg.eps)
    _emit({"op": cfg.op, "seed": cfg.seed, "epsilon": cfg.eps, **report.to_json()})
    return 0


def _cmd_demo_synth(cfg: RunConfig) -> int:
    report = demo.run_synth_demo(cfg.seed, cfg.out, k=cfg.k, weighted=cfg.weighted,
                                 theta=cfg.theta, top_k=cfg.topk, order=cfg.order)
    _emit(report.to_json())
    return 0


_COMMANDS = {
    "zones build": _cmd_zones_build,
    "afford query": _cmd_afford_query,
    "afford fuse": _cmd_afford_fuse,
    "hotspot reweight": _cmd_hotspot_reweight,
    "eval sta": _cmd_eval_sta,
    "curate ek": _cmd_curate_ek,
    "attn check-grad": _cmd_attn_check_grad,
    "demo synth": _cmd_demo_synth,
}


def run(cfg: RunConfig) -> int:
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    return _COMMANDS[cfg.command](cfg)


def _error_record(exc: Exception) -> dict:
    record = {"type": type(exc).__name__, "message": str(exc)}
    for attr, key in (("path", "file"), ("line", "line"), ("field", "field")):
        value = getattr(exc, attr, None)
        if value is not None:
            record[key] = value
    return {"error": record}


def main(argv=None) -> int:
    wanted = os.environ.get("STAKIT_LOG", "WARNING").upper()
    level = getattr(logging, wanted, None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    except formats.InputError as exc:
        sys.stderr.write(json.dumps(_error_record(exc)) + "\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports anything
        log.debug("command failed", exc_info=True)
        sys.stderr.write(json.dumps(_error_record(exc)) + "\n")
        return 1


def console_main() -> None:
    raise SystemExit(main())
