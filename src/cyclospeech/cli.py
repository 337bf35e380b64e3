"""Command-line interface: dataset synthesis, single-file enhancement, batch
evaluation, and modulation-set inspection."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from .dataset import SynthSettings, eval_dataset, synth_dataset
from .pipeline import (
    PipelineConfig,
    PipelineError,
    field_parser,
    run_pipeline,
    select_modulation_set,
)
from .wavio import ENCODINGS, read_wav

logger = logging.getLogger(__name__)

_MODSET_HELP = "comma-separated shifts in Hz (e.g. 0,110,220) to bypass estimation"


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """One flag per ``PipelineConfig`` field, ``--dashed-name`` (``--modset``
    for ``forced_modset``), parsed as ``PipelineConfig.from_mapping`` parses
    that key, with the field's admissible values as its help; the config
    checks them. A flag left out is absent from the namespace."""
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(PipelineConfig):
        is_modset = f.name == "forced_modset"
        allowed = f.metadata.get("admits")
        if isinstance(allowed, tuple):
            allowed = "one of {" + ", ".join(allowed) + "}"
        else:
            allowed = f"in {allowed}"
        parser.add_argument(
            "--modset" if is_modset else "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=field_parser(f.name),
            default=argparse.SUPPRESS,
            help=_MODSET_HELP if is_modset else f"{allowed}, default {f.default}",
        )


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = (
        PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    )
    given = vars(args)
    overrides = {f.name: given[f.name] for f in fields(config) if f.name in given}
    return replace(config, **overrides)


def _log_config(config: PipelineConfig, log_path=None) -> None:
    lines = [f"{k}={v}" for k, v in config.as_mapping().items()]
    for line in lines:
        logger.info("config %s", line)
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _cmd_synth(args) -> int:
    settings = SynthSettings(
        seed=args.seed,
        snr_range=(args.snr_min, args.snr_max),
        f0_range=(args.f0_min, args.f0_max),
        num_harmonics=args.harmonics,
        correlation=args.correlation,
        envelope_rate=args.envelope_rate,
        amplitude_decay=args.amplitude_decay,
        encoding=args.encoding,
    )
    manifest = synth_dataset(args.clean_dir, args.out_dir, settings)
    print(f"wrote {manifest}")
    return 0


def _cmd_enhance(args) -> int:
    config = _build_config(args)
    _log_config(config, args.log)
    _, record = run_pipeline(
        args.input,
        config,
        output_wav=args.output,
        reference_wav=args.reference,
    )
    print(f"wrote {args.output}")
    if record is not None:
        print(f"si_sdr_db={record.si_sdr_db:.6f} stoi={record.stoi:.6f}")
    return 0


def _cmd_eval(args) -> int:
    base = _build_config(args)
    configs = []
    for spec in args.pipeline or ["id:none"]:
        try:
            preproc, mask = spec.split(":")
        except ValueError:
            raise PipelineError("config", f"bad --pipeline spec {spec!r}; use preproc:mask")
        configs.append(replace(base, preproc=preproc, mask=mask))
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.dataset_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _log_config(base, out_dir / "run.log")
    records, skips = eval_dataset(
        args.dataset_dir, configs, out_dir=out_dir, workers=args.workers
    )
    print(f"evaluated {len(records)} records ({len(skips)} skipped) -> {out_dir}")
    return 0


def _cmd_modset(args) -> int:
    config = _build_config(args)
    signal = read_wav(args.input)
    modset, reports = select_modulation_set(signal, config)
    for report in reports:
        flag = "accepted" if report.accepted else "rejected"
        print(f"candidate {report.candidate_hz:10.3f} Hz  "
              f"coherence {report.coherence:5.3f}  {flag}")
    # repr keeps every digit, so the line pastes back into --modset exactly
    print("modulation set [Hz]: " + ",".join(repr(s) for s in modset.shifts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclospeech",
        description="Harmonic-noise speech enhancement via cyclic MPDR beamforming",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a noisy dataset")
    p_synth.add_argument("--clean-dir", required=True)
    p_synth.add_argument("--out-dir", required=True)
    synth = SynthSettings()
    p_synth.add_argument("--seed", type=int, default=synth.seed)
    p_synth.add_argument("--snr-min", type=float, default=synth.snr_range[0])
    p_synth.add_argument("--snr-max", type=float, default=synth.snr_range[1])
    p_synth.add_argument("--f0-min", type=float, default=synth.f0_range[0])
    p_synth.add_argument("--f0-max", type=float, default=synth.f0_range[1])
    p_synth.add_argument("--harmonics", type=int, default=synth.num_harmonics)
    p_synth.add_argument("--correlation", type=float, default=synth.correlation)
    p_synth.add_argument("--envelope-rate", type=float, default=synth.envelope_rate)
    p_synth.add_argument("--amplitude-decay", type=float, default=synth.amplitude_decay)
    p_synth.add_argument("--encoding", choices=ENCODINGS, default=synth.encoding)
    p_synth.set_defaults(func=_cmd_synth)

    p_enh = sub.add_parser("enhance", help="enhance a single WAV file")
    p_enh.add_argument("input")
    p_enh.add_argument("output")
    p_enh.add_argument("--reference", help="clean WAV for oracle mask / metrics")
    p_enh.add_argument("--log", help="write the resolved config to this file")
    _add_config_args(p_enh)
    p_enh.set_defaults(func=_cmd_enhance)

    p_eval = sub.add_parser("eval", help="batch-evaluate pipelines on a dataset")
    p_eval.add_argument("--dataset-dir", required=True)
    p_eval.add_argument("--out-dir")
    p_eval.add_argument(
        "--pipeline",
        action="append",
        help="preproc:mask pair (repeatable), e.g. cmpdr:oracle-irm",
    )
    p_eval.add_argument("--workers", type=int, default=1)
    _add_config_args(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_mod = sub.add_parser("modset", help="estimate and print the modulation set")
    p_mod.add_argument("input")
    _add_config_args(p_mod)
    p_mod.set_defaults(func=_cmd_modset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
