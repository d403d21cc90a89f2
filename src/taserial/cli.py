"""Command line interface: run a configured workload, check a trace,
or fuzz random workloads end to end.

Exit codes: run 0 = all machines committed, 2 = step budget exhausted,
1 = bad input or internal invariant violation.  check 0 = serializable,
3 = not serializable, 1 = malformed trace.  fuzz 0 = every generated run
completed and was serializable, 3 = some run exhausted its budget, raised
or was not serializable, 1 = bad arguments or a failed `--self-test`.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .anomaly import forged_lost_update_trace
from .asm import AsmError
from .checker import (
    Verdict,
    brute_force_serializable,
    check_serializable,
)
from .controller import LockInvariantViolation
from .dsl import ParseError, ProgramError, parse_program
from .engine import (
    CHOICES,
    SETTINGS,
    ConfigError,
    InconsistentGlobalUpdate,
    MalformedTrace,
    RunConfig,
    load_trace,
    loads_json,
    run,
    write_trace,
)
from .fuzz import FuzzParams, random_config
from .workloads import count_events

def _default_seed() -> int:
    raw = os.environ.get("TASERIAL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"TASERIAL_SEED must be an integer, got {raw!r}")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from None


def load_manifest(path: str) -> RunConfig:
    """Run manifest: JSON with a list of program files plus run settings;
    a key listed twice is an error."""
    base = Path(path).parent
    try:
        manifest = loads_json(_read_text(Path(path)))
    except ValueError as e:  # also an integer past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nests too deeply") from None
    programs = manifest.get("programs") if isinstance(manifest, dict) else None
    if not isinstance(programs, list) or not all(isinstance(p, str) for p in programs):
        raise ConfigError(f"{path}: manifest needs a 'programs' list of file names")
    unknown = sorted(set(manifest) - {"programs", *SETTINGS})
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys {unknown}; the "
                          f"settings are {list(SETTINGS)}")
    machines = []
    for rel in programs:
        text = _read_text(base / rel)
        try:
            machines.append(parse_program(text))
        except (ParseError, ProgramError) as e:
            raise ConfigError(f"{base / rel}: {e}") from None
    return RunConfig(machines, **{key: manifest[key] for key in SETTINGS
                                  if key in manifest})


def _reject_deep_nesting(cmd):
    """Report a program nested past the interpreter's recursion limit, in
    parsing, running or checking it, as bad input instead of a traceback."""
    @functools.wraps(cmd)
    def guarded(args) -> int:
        try:
            return cmd(args)
        except RecursionError:
            print("error: program nests too deeply", file=sys.stderr)
            return 1
    return guarded


@_reject_deep_nesting
def cmd_run(args) -> int:
    overrides = {name: getattr(args, name) for name in SETTINGS
                 if getattr(args, name, None) is not None}
    if args.seed is None and "TASERIAL_SEED" in os.environ:
        overrides["seed"] = _default_seed()
    try:
        config = replace(load_manifest(args.config), **overrides)
    except (OSError, ParseError, ProgramError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for warning in config.closed_system_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    try:
        trace = run(config)
    except (LockInvariantViolation, InconsistentGlobalUpdate) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 1
    except AsmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.trace:
        try:
            write_trace(trace, args.trace)
        except OSError as e:
            print(f"error: {args.trace}: {e.strerror or e}", file=sys.stderr)
            return 1
    print(json.dumps({
        "status": trace.status,
        "steps": len(trace.steps),
        "committed": trace.committed,
        "victimizations": count_events(trace, "victimize"),
        "undos": count_events(trace, "undo"),
    }))
    return 0 if trace.status == "done" else 2


def _verdict_record(verdict: Verdict, oracle: str) -> dict:
    out = {"serializable": verdict.ok, "oracle": oracle,
           "order": verdict.order}
    if not verdict.ok:
        out["reason"] = verdict.reason
        if verdict.witness:
            out["witness"] = verdict.witness
    return out


@_reject_deep_nesting
def cmd_check(args) -> int:
    try:
        trace = load_trace(args.trace)
        if args.brute_force:
            verdict, oracle = brute_force_serializable(trace), "brute-force"
        else:
            verdict, oracle = check_serializable(trace), "commit-order"
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (MalformedTrace, ParseError, ProgramError, ConfigError) as e:
        print(f"malformed trace: {e}", file=sys.stderr)
        return 1
    except AsmError as e:
        # TooManyMachines, or a serial run that cannot evaluate its rules
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(_verdict_record(verdict, oracle)))
    return 0 if verdict.ok else 3


def cmd_fuzz(args) -> int:
    for flag, value, least in (("--machines", args.machines, 1),
                               ("--locations", args.locations, 1),
                               ("--runs", args.runs, 0)):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}",
                  file=sys.stderr)
            return 1
    if args.self_test:
        return _anomaly_self_test()
    params = FuzzParams(n_machines=args.machines, n_shared=args.locations)
    stats = {"commit": 0, "victimize": 0, "undo": 0, "lock_refuse": 0}
    failures: List[int] = []
    for i in range(args.runs):
        seed = args.seed + i
        config = random_config(seed, params)
        try:
            trace = run(config)
            verdict = check_serializable(trace)
        except AsmError as e:
            print(f"run seed={seed}: error: {e}")
            failures.append(seed)
            continue
        for kind in stats:
            stats[kind] += count_events(trace, kind)
        ok = trace.status == "done" and verdict.ok
        print(f"run seed={seed}: status={trace.status} "
              f"steps={len(trace.steps)} "
              f"serializable={'yes' if verdict.ok else 'NO'}")
        if not ok:
            failures.append(seed)
            dump = f"fuzz-fail-{seed}.jsonl"
            try:
                write_trace(trace, dump)
                dumped = f"; trace dumped to {dump}"
            except OSError as e:
                print(f"error: {dump}: {e.strerror or e}", file=sys.stderr)
                dumped = ""
            print(f"  repro: taserial fuzz --runs 1 --seed {seed} "
                  f"--machines {args.machines} --locations {args.locations}"
                  f"{dumped}")
    print(f"aggregate: runs={args.runs} failures={len(failures)} "
          f"commits={stats['commit']} victimizations={stats['victimize']} "
          f"undos={stats['undo']} refusals={stats['lock_refuse']}")
    return 0 if not failures else 3


def _anomaly_self_test() -> int:
    trace = forged_lost_update_trace()
    fast = check_serializable(trace)
    slow = brute_force_serializable(trace)
    print(json.dumps({"commit_order_rejects": not fast.ok,
                      "brute_force_rejects": not slow.ok}))
    return 0 if not fast.ok and not slow.ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taserial",
        description="Locking transaction controller simulator and "
                    "serializability checker.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a workload manifest")
    p_run.add_argument("config", help="JSON manifest listing program files")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--trace", default=None, help="write trace file here")
    for name, choices in CHOICES.items():
        p_run.add_argument("--" + name.replace("_", "-"), choices=choices)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="check a trace for serializability")
    p_check.add_argument("trace")
    p_check.add_argument("--brute-force", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="random workloads, run and check each")
    p_fuzz.add_argument("--runs", type=int, default=20)
    p_fuzz.add_argument("--machines", type=int, default=3)
    p_fuzz.add_argument("--locations", type=int, default=3)
    p_fuzz.add_argument("--seed", type=int, default=None)
    p_fuzz.add_argument("--self-test", action="store_true",
                        help="check that the forged lost-update trace is "
                             "rejected")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "fuzz" and args.seed is None:
        args.seed = _default_seed()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
