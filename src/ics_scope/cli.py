"""Command-line front end: analyze, dissect, sanitize, gen, version.

Exit codes: 0 success, 1 processing error, 2 configuration or usage error.
Log level comes from the ICS_SCOPE_LOG environment variable: one of
LOG_LEVELS in any case, WARNING when unset.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .capture import CaptureError, CaptureMeta
from .classify import FILTER_FAMILIES
from .dissectors import action_name
from .inputs import fault, writable
from .pipeline import (
    CaptureSource,
    CaptureState,
    ConfigError,
    PipelineConfig,
    candidate_verdicts,
    run_analyze,
    sanitize_table,
    write_csv,
)
from .sanitize import default_catalog, retention, sanitize_rows
from .trafficgen import ScenarioSpec, generate

log = logging.getLogger(__name__)

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _snap_len(text: str) -> int:
    """A --snap-len value, checked as the capture setup checks it."""
    try:
        return CaptureMeta("cli", snap_len=int(text)).snap_len
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ics-scope",
        description="Find, sanitize and classify ICS traffic in sampled packet captures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline and write reports")
    analyze.add_argument("--config", required=True, help="pipeline config JSON")
    analyze.add_argument("--out", required=True, help="output directory for the report bundle")
    analyze.add_argument(
        "--filters",
        choices=list(FILTER_FAMILIES),
        help="filter family override for the industrial label",
    )

    dissect_cmd = sub.add_parser("dissect", help="per-candidate verdicts as JSON lines")
    dissect_cmd.add_argument("pcap", help="capture file to dissect")
    dissect_cmd.add_argument("--snap-len", type=_snap_len, default=65535)
    dissect_cmd.add_argument("--out", help="write JSON lines here instead of stdout")

    sanitize_cmd = sub.add_parser("sanitize", help="dissect plus sanitization report only")
    sanitize_cmd.add_argument("pcap", help="capture file to sanitize")
    sanitize_cmd.add_argument("--snap-len", type=_snap_len, default=65535)

    gen = sub.add_parser("gen", help="generate a labeled synthetic corpus")
    gen.add_argument("spec", help="scenario spec JSON")
    gen.add_argument("--out", required=True, help="output directory for the corpus")

    sub.add_parser("version", help="print the toolkit version")
    return parser


def _cmd_analyze(args) -> int:
    config = PipelineConfig.from_json(args.config)
    if args.filters:
        config.filters = args.filters
    summary = run_analyze(config, args.out)
    print(
        f"analyzed {summary['records']} records, {summary['candidates']} candidates, "
        f"{summary['kept']} kept; reports in {args.out}"
    )
    return 0


def _capture_source(args) -> CaptureSource:
    """The one capture a dissect or sanitize command reads."""
    return CaptureSource(Path(args.pcap), CaptureMeta("cli", snap_len=args.snap_len))


def _dissect_lines(source: CaptureSource, out) -> None:
    """A JSON line per candidate of the stream, with the packaged DPI catalog:
    its dissection, action and verdict; index is the frame's position in the
    pcap, skipped frames included."""
    for index, _, dissection, verdict in candidate_verdicts(CaptureState(), source, 0,
                                                            default_catalog()):
        line = {"index": index, **dissection._asdict(), "sanitize": verdict,
                "action": action_name(dissection.protocol, dissection.function_code)}
        out.write(json.dumps(line, sort_keys=True) + "\n")


def _cmd_dissect(args) -> int:
    source = _capture_source(args)
    if not args.out:
        _dissect_lines(source, sys.stdout)
        return 0
    out = Path(args.out)
    if out.exists() and not out.is_file():  # a device or a FIFO is written as it goes
        with writable(out, lambda: open(out, "w")) as fh:
            _dissect_lines(source, fh)
        return 0
    # A sibling file renamed over --out once complete: a failed run leaves
    # --out as it was.
    partial = out.with_name(f".{out.name}.{os.getpid()}.partial")
    try:
        with writable(out, lambda: open(partial, "x")) as fh:
            _dissect_lines(source, fh)
        os.replace(partial, out)
    finally:
        partial.unlink(missing_ok=True)
    return 0


def _cmd_sanitize(args) -> int:
    state = CaptureState()
    for _ in candidate_verdicts(state, _capture_source(args), 0, default_catalog()):
        pass
    write_csv(sys.stdout, sanitize_table(sanitize_rows(retention(state.events)[0])))
    return 0


def _cmd_gen(args) -> int:
    spec = ScenarioSpec.from_json(args.spec)
    corpus = generate(spec, args.out)
    print(f"corpus written to {corpus.out_dir}")
    return 0


def _log_level() -> str:
    level = os.environ.get("ICS_SCOPE_LOG", "WARNING")
    if level.upper() not in LOG_LEVELS:
        raise fault("ICS_SCOPE_LOG", None, f"one of {', '.join(LOG_LEVELS)}", level)
    return level.upper()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        logging.basicConfig(level=_log_level(), format="%(levelname)s %(name)s: %(message)s")
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "dissect":
            return _cmd_dissect(args)
        if args.command == "sanitize":
            return _cmd_sanitize(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "version":
            print(__version__)
            return 0
    except (ConfigError, CaptureError, FileNotFoundError) as exc:
        # Bad or missing inputs named on the command line or in the config.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; not our error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        log.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
