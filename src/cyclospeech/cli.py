"""Command-line interface: dataset synthesis, single-file enhancement, batch
evaluation, and modulation-set inspection."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from ._fields import field_parser
from .dataset import SynthSettings, eval_dataset, synth_dataset
from .pipeline import (
    PipelineConfig,
    PipelineError,
    run_pipeline,
    select_modulation_set,
)
from .wavio import read_wav

logger = logging.getLogger(__name__)


def _flag_type(parse):
    """``parse`` as an argparse type whose refusal shows ``parse``'s own
    message, which names the expected form, not the parser's name."""

    def flag_type(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_type


def _add_settings_args(parser: argparse.ArgumentParser, cls, skip=()) -> None:
    """One flag per field of the settings dataclass ``cls`` not named in
    ``skip``, ``--dashed-name`` unless the field's metadata names it, parsed
    as a config file parses that key, with the field's admissible values as
    its help; the settings check them. A flag left out is absent from the
    namespace."""
    for f in fields(cls):
        if f.name in skip:
            continue
        parse = field_parser(cls, f.name)
        allowed, default = f.metadata.get("admits"), f.default
        if isinstance(allowed, tuple):
            allowed = "one of {" + ", ".join(allowed) + "}"
        elif isinstance(default, tuple):
            allowed = f"comma-separated, each in {allowed}"
            default = ",".join(map(str, default))
        else:
            allowed = f"in {allowed}"
        parser.add_argument(
            "--" + f.metadata.get("flag", f.name).replace("_", "-"),
            dest=f.name,
            # argparse words a builtin type's refusal well itself
            type=parse if isinstance(parse, type) else _flag_type(parse),
            default=argparse.SUPPRESS,
            help=f.metadata.get("help", f"{allowed}, default {default}"),
        )


def _given(cls, args: argparse.Namespace) -> dict:
    """The fields of ``cls`` that a flag set."""
    given = vars(args)
    return {f.name: given[f.name] for f in fields(cls) if f.name in given}


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = (
        PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    )
    return replace(config, **_given(PipelineConfig, args))


def _log_config(
    config: PipelineConfig, log_path=None, echo: bool = True, pipelines=()
) -> None:
    """Echo and write ``config`` as config-file lines. With ``pipelines``,
    the ``preproc:mask`` pairs run instead of the config's own, its
    ``preproc`` and ``mask`` are left out and each pair ends the file as a
    ``# pipeline=`` comment, which ``--config`` skips."""
    drop = ("preproc", "mask") if pipelines else ()
    lines = [f"{k}={v}" for k, v in config.as_mapping().items() if k not in drop]
    lines += [f"# pipeline={spec}" for spec in pipelines]
    for line in lines if echo else ():
        logger.info("config %s", line)
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _cmd_synth(args) -> int:
    settings = SynthSettings(**_given(SynthSettings, args))
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
    if args.pipeline:
        # the same keys in a config file stay accepted
        for name in ("preproc", "mask"):
            if name in vars(args):
                raise ValueError(f"--{name} and --pipeline cannot be combined")
    configs = []
    for spec in args.pipeline or [f"{base.preproc}:{base.mask}"]:
        try:
            preproc, mask = spec.split(":")
        except ValueError:
            raise PipelineError("config", f"bad --pipeline spec {spec!r}; use preproc:mask")
        configs.append(replace(base, preproc=preproc, mask=mask))
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.dataset_dir)
    pipelines = [f"{c.preproc}:{c.mask}" for c in configs] if args.pipeline else ()
    _log_config(base, pipelines=pipelines)
    records, skips = eval_dataset(
        args.dataset_dir, configs, out_dir=out_dir, workers=args.workers
    )
    # the file only now: eval_dataset refuses bad input before creating anything
    _log_config(base, out_dir / "run.log", echo=False, pipelines=pipelines)
    print(f"evaluated {len(records)} records ({len(skips)} skipped) -> {out_dir}")
    # every output is written; a skipped row still fails the run for a script
    return 1 if skips else 0


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
    _add_settings_args(p_synth, SynthSettings)
    p_synth.set_defaults(func=_cmd_synth)

    p_enh = sub.add_parser("enhance", help="enhance a single WAV file")
    p_enh.add_argument("input")
    p_enh.add_argument("output")
    p_enh.add_argument("--reference", help="clean WAV for oracle mask / metrics")
    p_enh.add_argument("--log", help="write the resolved config to this file")
    p_enh.add_argument("--config", help="flat key=value config file")
    _add_settings_args(p_enh, PipelineConfig)
    p_enh.set_defaults(func=_cmd_enhance)

    p_eval = sub.add_parser("eval", help="batch-evaluate pipelines on a dataset")
    p_eval.add_argument("--dataset-dir", required=True)
    p_eval.add_argument("--out-dir")
    p_eval.add_argument(
        "--pipeline",
        action="append",
        help="preproc:mask pair (repeatable), e.g. cmpdr:oracle-irm; "
        "default: the config's own preproc and mask",
    )
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--config", help="flat key=value config file")
    _add_settings_args(p_eval, PipelineConfig)
    p_eval.set_defaults(func=_cmd_eval)

    p_mod = sub.add_parser("modset", help="estimate and print the modulation set")
    p_mod.add_argument("input")
    p_mod.add_argument("--config", help="flat key=value config file")
    # modset runs no pipeline; preproc= and mask= lines in a shared config
    # file are still accepted
    _add_settings_args(p_mod, PipelineConfig, skip=("preproc", "mask"))
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
