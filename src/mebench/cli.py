"""Command-line entry point wiring the modules into reproducible runs.

Subcommands: manifest, flow, loso, prima-facie, gradcam, report. Every
run writes a provenance sidecar sufficient to replay it; all randomness
derives from one root seed fanned out by labeled derivation. Exit
codes: 0 success, 2 configuration error, 3 data error (a DataError, an
OSError, or a MemoryError, reported as "not enough memory": a size
argument too large for this machine), 4 internal.
No command makes its --out directory up front: each file write makes
its parents, so a run refused before its first write leaves no --out.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CommandPredictor,
    Dataset,
    Gender,
    Manifest,
    RawEthnicity,
    SynthSpec,
    TablePredictor,
    annotate_attributes,
    apply_heuristic_corrections,
    build_manifest,
    ingest_dataset_index,
    load_ledger,
    load_manifest,
    save_manifest,
    summarize_distribution,
    synthesize_desk_corpus,
)
from .corpus.predictor import UNANNOTATED, attribute_fields
from .corpus.records import parse_age
from .errors import ConfigError, DataError, MebenchError
from .flowcore import FlowParams, load_frame, read_flow_image, write_pgm
from .flowcore.flowimage import read_flow_image_shape
from .model import (
    EncoderConfig,
    FrozenEncoder,
    ModelConfig,
    TrainConfig,
    Variant,
    extract_frozen_features,
    gradcam,
    load_checkpoint,
)
from .model.training import _batch_inputs
from .pipeline import (
    EMOTION_CLASSES,
    existing_flow_image_path,
    flow_image_path,
    load_train_samples,
    materialize_flow_images,
)
from .protocol import (
    BENCHMARK_COLUMNS,
    PRIMA_FACIE_COLUMNS,
    ForestConfig,
    PrimaFacieScenario,
    ScenarioKind,
    plan_scenarios,
    render_table,
    run_loso_variant,
    run_prima_facie,
)
from .runutil import atomic_write_text, derive_seed, hash_file, read_json_object, stable_hash, to_json_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _workers() -> int:
    """Worker processes from MEBENCH_THREADS: a positive integer, 1 when unset."""
    raw = os.environ.get("MEBENCH_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"MEBENCH_THREADS must be a positive integer, got {raw!r}")
    return workers


def _parse_list(text: str, choices, what: str) -> list:
    """A comma list's stripped entries, each looked up in choices (enum
    members, by value, or names); an unknown or repeated entry is a ConfigError."""
    by_name = {getattr(choice, "value", choice): choice for choice in choices}
    names = [name.strip() for name in text.split(",")]
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}; choose from {','.join(by_name)}")
    if len(set(names)) < len(names):
        raise ConfigError(f"a {what} is given twice: {text}")
    return [by_name[name] for name in names]


def _write_provenance(out_dir: Path, command: str, payload: dict, manifest_path=None) -> None:
    """provenance.json: payload, command and version, plus the input manifest and its hash when given."""
    payload = {"command": command, "package_version": __version__, **payload}
    if manifest_path is not None:
        payload.update(manifest=str(manifest_path), manifest_hash=hash_file(manifest_path))
    payload["provenance_hash"] = stable_hash(payload)
    atomic_write_text(out_dir / "provenance.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _flow_provenance_hash(flow_dir) -> str:
    """The provenance hash of the `flow` run that wrote flow_dir, read from its provenance.json."""
    path = Path(flow_dir) / "provenance.json"
    payload = read_json_object(path)
    if payload is None or not isinstance(payload.get("provenance_hash"), str):
        raise DataError(f"{path}: flow provenance is missing, or is not a JSON object with a provenance_hash")
    return payload["provenance_hash"]


def _write_report(out_dir: Path, stem: str, result: dict, columns: tuple) -> None:
    """Write a study's result record as <stem>.json, the .md and .tsv tables
    rendered from its "rows", and print the markdown."""
    markdown, tsv = render_table(result["rows"], columns)
    atomic_write_text(out_dir / f"{stem}.tsv", tsv + "\n")
    atomic_write_text(out_dir / f"{stem}.md", markdown + "\n")
    atomic_write_text(out_dir / f"{stem}.json", json.dumps(result, sort_keys=True, indent=2) + "\n")
    print(markdown)


def _deviations(flow_params: FlowParams | None = None, train: TrainConfig | None = None) -> dict:
    """Configured values for settings the source protocol leaves unstated."""
    out = {
        "encoders": "desk-scale conv / 2-block patch transformer instead of pretrained backbones",
    }
    if flow_params is not None:
        out["flow_solver"] = {
            "note": "variational solver parameters are a configuration choice",
            **asdict(flow_params),
        }
    if train is not None:
        out["training"] = {
            "note": "decay factor, batch size, and input resolution are configuration choices",
            "lr_gamma": train.lr_gamma,
            "batch_size": train.batch_size,
        }
    return out


# ------------------------------------------------------------------ manifest


def _load_predictor(args):
    if args.predictor_cmd:
        try:
            command = shlex.split(args.predictor_cmd)
        except ValueError as exc:  # an unbalanced quote or a trailing backslash
            raise ConfigError(f"--predictor-cmd {args.predictor_cmd!r}: {exc}") from exc
        if not command:
            raise ConfigError("--predictor-cmd names no command")
        return CommandPredictor(command)
    table = {}
    if args.predictor_table:
        try:
            raw = json.loads(Path(args.predictor_table).read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                raise TypeError(f"expected an object, got {type(raw).__name__}")
            for subject, entry in raw.items():
                if isinstance(entry, str):
                    table[subject] = RawEthnicity(entry)
                else:
                    table[subject] = (Gender(entry[0]), parse_age(entry[1]), RawEthnicity(entry[2]))
        except (IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:  # bad UTF-8 and JSON, age 1e400
            raise ConfigError(f"{args.predictor_table}: malformed predictor table: {exc}") from exc
        return TablePredictor(table)
    warnings.warn(
        "no predictor given; the default stub marks every subject Others/unknown "
        "(supply --predictor-table, --predictor-cmd, or correction rules)",
        stacklevel=2,
    )
    return TablePredictor({}, default=UNANNOTATED)


def cmd_manifest(args) -> int:
    out_dir = Path(args.out)
    if args.synth:
        spec = SynthSpec(
            subjects_per_group=args.subjects_per_group,
            clips_per_subject=args.clips_per_subject,
            image_size=args.image_size,
            shift_strength=args.shift_strength,
        )
        manifest, _truths = synthesize_desk_corpus(spec, seed=args.seed, out_dir=out_dir)
        print(f"synthesized {len(manifest.records)} clips under {out_dir}")
    else:
        if not (args.casme2 or args.samm):
            raise ConfigError("give --synth, or at least one of --casme2 / --samm")
        predictor = _load_predictor(args)
        ledger, ledger_hash = (load_ledger(args.ledger), hash_file(args.ledger)) if args.ledger else ([], "")
        records = []
        if args.casme2:
            records += ingest_dataset_index(args.casme2, Dataset.CASME2)
        if args.samm:
            records += ingest_dataset_index(args.samm, Dataset.SAMM)
        build_manifest(records, {})  # refuse bad ids, shared stems and two-dataset subjects before any frame is read

        annotated = []
        by_subject = {}
        for rec in records:
            by_subject.setdefault(rec.subject_id, []).append(rec)
        for subject, recs in sorted(by_subject.items()):
            try:
                fields = annotate_attributes(load_frame(recs[0].apex_path), predictor, subject)
            except DataError as exc:
                if args.on_annotation_error == "fail":
                    raise
                print(f"warning: {exc}; subject left unannotated", file=sys.stderr)
                fields = attribute_fields(*UNANNOTATED)
            annotated += [replace(rec, **fields) for rec in recs]

        corrected, audit = apply_heuristic_corrections(annotated, ledger)
        provenance = {"seed": args.seed, "predictor": getattr(predictor, "name", "unknown"), "ledger_hash": ledger_hash}
        manifest = build_manifest(corrected, provenance)  # checked before the first write
        if audit:
            audit_lines = [json.dumps(to_json_dict(entry), sort_keys=True) for entry in audit]
            atomic_write_text(out_dir / "correction_audit.jsonl", "\n".join(audit_lines) + "\n")
            print(f"applied {len(audit)} corrections (audit log written)")
        save_manifest(manifest, out_dir / "manifest.jsonl")

    report = summarize_distribution(manifest)
    print("\n".join(report.to_lines()))
    _write_provenance(
        out_dir,
        "manifest",
        {
            "seed": args.seed,
            "synth": bool(args.synth),
            "manifest_hash": hash_file(out_dir / "manifest.jsonl"),
            "deviations": _deviations(),
        },
    )
    return EXIT_OK


# ------------------------------------------------------------------ flow


def _flow_params(args) -> FlowParams:
    return FlowParams(
        smoothness_alpha=args.alpha,
        iterations=args.iterations,
        pyramid_levels=args.levels,
    )


def cmd_flow(args) -> int:
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out)
    params = _flow_params(args)
    stats = materialize_flow_images(manifest, params, out_dir, force=args.force, workers=_workers())
    images = (read_flow_image(flow_image_path(out_dir, record)) for record in manifest.records)
    fractions = np.array([image.clip_fraction for image in images]) if manifest.records else np.zeros((1, 3))
    print(
        f"flow images: {stats.computed} computed, {stats.cached} cached "
        f"(clip fraction mean fx={fractions[:, 0].mean():.4f} fy={fractions[:, 1].mean():.4f} "
        f"strain={fractions[:, 2].mean():.4f}, max={fractions.max():.4f})"
    )
    _write_provenance(
        out_dir,
        "flow",
        {
            "flow_params": asdict(params),
            "flow_params_hash": stable_hash(asdict(params)),
            "deviations": _deviations(flow_params=params),
        },
        args.manifest,
    )
    return EXIT_OK


# ------------------------------------------------------------------ loso


def cmd_loso(args) -> int:
    variants = _parse_list(args.variants, Variant, "variant")
    model_config = ModelConfig.small(feature_dim=args.feature_dim)  # checked now; its image size comes from the flows
    train_config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr, lr_gamma=args.lr_gamma)
    manifest = load_manifest(args.manifest)
    flow_provenance_hash = _flow_provenance_hash(args.flow_dir)
    records = manifest.eligible()
    if not records:
        raise DataError("manifest has no eligible records")
    first = existing_flow_image_path(args.flow_dir, records[0])
    side, width = read_flow_image_shape(first)
    if side != width:
        raise DataError(f"{first}: the model takes square flow images, got {side}x{width}")
    model_config = replace(model_config, image_size=side)  # the model's input side is the flow images'
    for variant in variants:
        model_config.validate_for(variant)
    out_dir = Path(args.out)

    workers = _workers()
    # the LOSO folds and a full-data checkpoint per variant, for activation-map analysis
    rows = [
        run_loso_variant(
            manifest, variant, model_config, train_config, args.flow_dir, args.seed, out_dir / "folds", workers,
            model_path=out_dir / f"model_{variant.value}.meck", force=args.no_resume,
        )[0].to_dict()
        for variant in variants
    ]
    _write_report(out_dir, "benchmark", {"rows": rows}, BENCHMARK_COLUMNS)

    _write_provenance(
        out_dir,
        "loso",
        {
            "seed": args.seed,
            "variants": [v.value for v in variants],
            "model": asdict(model_config),
            "train": asdict(train_config),
            "flow_provenance_hash": flow_provenance_hash,
            "deviations": _deviations(train=train_config),
        },
        args.manifest,
    )
    return EXIT_OK


# ------------------------------------------------------------------ prima facie


def cmd_prima_facie(args) -> int:
    kinds = _parse_list(args.scenarios, ScenarioKind, "scenario") if args.scenarios else list(ScenarioKind)
    forest_config = ForestConfig(n_trees=args.trees, max_depth=args.depth)
    seeds = [derive_seed(args.seed, "prima-facie", i) for i in range(args.seeds)]
    plan_scenarios(seeds, kinds, args.budget)  # refuse a bad argument before any file is read
    manifest = load_manifest(args.manifest)
    flow_provenance_hash = _flow_provenance_hash(args.flow_dir)
    out_dir = Path(args.out)
    if args.encoder_file:
        encoder = FrozenEncoder.from_file(args.encoder_file)
    else:
        encoder = FrozenEncoder.random_fallback(
            EncoderConfig(feature_dim=args.feature_dim), seed=derive_seed(args.seed, "frozen-encoder")
        )
    features = {
        sample.key: extract_frozen_features(sample.flow, encoder)
        for sample in load_train_samples(manifest.eligible(), args.flow_dir)
    }
    report = run_prima_facie(
        manifest,
        features,
        seeds=seeds,
        forest_config=forest_config,
        scenario_kinds=kinds,
        subject_budget=args.budget,
        encoder_origin=encoder.origin,
    )
    _write_report(out_dir, "prima_facie", report.to_json_dict(), PRIMA_FACIE_COLUMNS)
    _write_provenance(
        out_dir,
        "prima-facie",
        {
            "seed": args.seed,
            "n_seeds": args.seeds,
            "budget": args.budget,
            "scenarios": [k.value for k in kinds],
            "forest": asdict(forest_config),
            "encoder": encoder.origin,
            **({"encoder_hash": hash_file(args.encoder_file)} if args.encoder_file else {}),
            "feature_dim": encoder.config.feature_dim,
            "flow_provenance_hash": flow_provenance_hash,
            "deviations": {
                **_deviations(),
                "frozen_features": "deterministic random-feature fallback unless --encoder-file is given",
            },
        },
        args.manifest,
    )
    return EXIT_OK


# ------------------------------------------------------------------ gradcam


def cmd_gradcam(args) -> int:
    class_filter = _parse_list(args.classes, EMOTION_CLASSES, "class")
    params, model_config, variant = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    flow_provenance_hash = _flow_provenance_hash(args.flow_dir)
    out_dir = Path(args.out)

    records = [r for r in manifest.eligible() if r.mapped_emotion.value in class_filter]
    samples = load_train_samples(records, args.flow_dir, need_rgb=variant.needs_rgb)
    map_lines = []
    for record, sample in zip(records, samples):
        target = sample.ethnicity if args.branch == "ethnicity" else sample.emotion
        amap = gradcam(params, model_config, variant, _batch_inputs([sample], variant), target, branch=args.branch)
        emotion_name = record.mapped_emotion.value
        write_pgm(out_dir / record.mapped_ethnicity.value / emotion_name / f"{record.stem}.pgm", amap.overlay)
        map_lines.append(
            json.dumps(
                {
                    "sample": record.stem,
                    "subject": record.subject_id,
                    "clip": record.clip_id,
                    "ethnicity": record.mapped_ethnicity.value,
                    "class": emotion_name,
                    "branch": amap.branch,
                    "target_class": amap.target_class,
                    "argmax_x": amap.argmax_xy[0],
                    "argmax_y": amap.argmax_xy[1],
                },
                sort_keys=True,
            )
        )
    atomic_write_text(out_dir / "maps.jsonl", "\n".join(map_lines) + ("\n" if map_lines else ""))
    print(f"wrote {len(map_lines)} activation maps grouped by ethnicity under {out_dir}")
    _write_provenance(
        out_dir,
        "gradcam",
        {
            "checkpoint": str(args.checkpoint),
            "checkpoint_hash": hash_file(args.checkpoint),
            "classes": class_filter,
            "branch": args.branch,
            "flow_provenance_hash": flow_provenance_hash,
            "deviations": _deviations(),
        },
        args.manifest,
    )
    return EXIT_OK


# ------------------------------------------------------------------ report


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise DataError(f"run directory not found: {run_dir}")
    sidecars = sorted(run_dir.rglob("provenance.json"))
    if not sidecars:
        raise DataError(f"no provenance sidecars under {run_dir}; refusing to report unattributed artifacts")

    lines = ["# Run report", ""]
    for sidecar in sidecars:
        payload = read_json_object(sidecar)
        if payload is None:
            raise DataError(f"{sidecar}: provenance is not a JSON object")
        rel = sidecar.parent.relative_to(run_dir)
        lines.append(f"## {payload.get('command', '?')} ({rel if str(rel) != '.' else 'run root'})")
        lines.append("")
        lines.append(f"- provenance hash: `{payload.get('provenance_hash', '')}`")
        for key in ("manifest_hash", "flow_params_hash", "flow_provenance_hash", "checkpoint_hash", "seed"):
            if key in payload:
                lines.append(f"- {key}: `{payload[key]}`")
        deviations = payload.get("deviations", {})
        if not isinstance(deviations, dict):
            raise DataError(f"{sidecar}: provenance deviations are not a JSON object")
        if deviations:
            lines.append("- configured deviations:")
            for key, value in sorted(deviations.items()):
                lines.append(f"  - {key}: {json.dumps(value, sort_keys=True)}")
        lines.append("")
        for artifact in ("benchmark.md", "prima_facie.md"):
            artifact_path = sidecar.parent / artifact
            if artifact_path.exists():
                try:
                    lines += [artifact_path.read_text(encoding="utf-8").rstrip(), ""]
                except UnicodeDecodeError as exc:
                    raise DataError(f"{artifact_path}: table is not UTF-8 text") from exc
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mebench",
        description="Desk-scale workbench for ethnicity-aware micro-expression recognition",
    )
    parser.add_argument("--version", action="version", version=f"mebench {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("manifest", help="build the annotated joint manifest (or a synthetic corpus)")
    p.add_argument("--out", required=True)
    p.add_argument("--casme2", help="CASME2 index table (csv/tsv)")
    p.add_argument("--samm", help="SAMM index table (csv/tsv)")
    p.add_argument("--ledger", help="correction-ledger file (one JSON rule per line)")
    p.add_argument("--predictor-table", help="JSON file: subject -> ethnicity or [gender, age, ethnicity]")
    p.add_argument("--predictor-cmd", help="external predictor command, split as a shell would (PGM path appended)")
    p.add_argument("--on-annotation-error", choices=("fail", "skip"), default="fail")
    p.add_argument("--synth", action="store_true", help="generate the synthetic desk corpus instead")
    p.add_argument("--subjects-per-group", type=int, default=SynthSpec.subjects_per_group)
    p.add_argument("--clips-per-subject", type=int, default=SynthSpec.clips_per_subject)
    p.add_argument("--image-size", type=int, default=SynthSpec.image_size)
    p.add_argument("--shift-strength", type=float, default=SynthSpec.shift_strength)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_manifest)

    p = sub.add_parser("flow", help="materialize optical flow images (OFI1) for every sample")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true", help="recompute even when cached")
    p.add_argument("--alpha", type=float, default=FlowParams.smoothness_alpha)
    p.add_argument("--iterations", type=int, default=FlowParams.iterations)
    p.add_argument("--levels", type=int, default=FlowParams.pyramid_levels)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("loso", help="LOSO benchmark over model variants")
    p.add_argument("--manifest", required=True)
    p.add_argument("--flow-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--variants",
        default="motion_only,dual_motion",
        help="comma list of: motion_only,dual_motion,motion_plus_rgb_conv,motion_plus_rgb_patch",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.base_lr)
    p.add_argument("--lr-gamma", type=float, default=TrainConfig.lr_gamma)
    p.add_argument("--feature-dim", type=int, default=EncoderConfig.feature_dim)
    p.add_argument("--no-resume", action="store_true", help="retrain every model and rewrite its cache entry")
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("prima-facie", help="mono- vs mixed-ethnicity frozen-feature study")
    p.add_argument("--manifest", required=True)
    p.add_argument("--flow-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=5, help="number of sampling seeds")
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument("--budget", type=int, default=PrimaFacieScenario.subject_budget, help="subjects per scenario")
    p.add_argument("--scenarios", help="comma list of AsianOnly,NonAsianOnly,Mixed (default all)")
    p.add_argument("--trees", type=int, default=ForestConfig.n_trees)
    p.add_argument("--depth", type=int, default=ForestConfig.max_depth)
    p.add_argument("--feature-dim", type=int, default=EncoderConfig.feature_dim)
    p.add_argument("--encoder-file", help="model checkpoint whose motion stack replaces the random fallback")
    p.set_defaults(func=cmd_prima_facie)

    p = sub.add_parser("gradcam", help="activation maps grouped by ethnicity")
    p.add_argument("--manifest", required=True)
    p.add_argument("--flow-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", default="Positive,Surprise")
    p.add_argument("--branch", default="fusion", choices=("emotion", "ethnicity", "fusion"))
    p.set_defaults(func=cmd_gradcam)

    p = sub.add_parser("report", help="consolidated markdown report for a run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"data error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MebenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
