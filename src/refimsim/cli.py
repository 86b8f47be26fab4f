"""Command line front end: run scenarios, sweep axes, score against the oracle.

Exit codes: 0 success, 1 configuration error, 2 runtime error. Output files
(column orders frozen, documented in the README): summary.json, users.csv,
optional powers.csv and protocol.csv, sweep.csv.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import channel, engine, reference
from .engine import Scenario, SWEEP_AXES
from .oracle import InstanceTooLarge, compare_to_oracle
from .presets import PRESETS, get_preset


class ConfigError(Exception):
    pass


_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)}
_TUPLE_FIELDS = {"center_band_m", "edge_band_m", "zones"}


def load_scenario(spec):
    """Resolve a preset name or a JSON config file into a Scenario."""
    if spec in PRESETS:
        return get_preset(spec)
    if not os.path.isfile(spec):
        raise ConfigError(f"{spec!r} is neither a preset ({sorted(PRESETS)}) "
                          f"nor a readable config file")
    try:
        with open(spec) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {spec}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    base = Scenario()
    if "preset" in doc:
        name = doc.pop("preset")
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}")
        base = PRESETS[name]
    unknown = set(doc) - _SCENARIO_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        for key in _TUPLE_FIELDS & set(doc):
            doc[key] = tuple(dict(z) for z in doc[key]) if key == "zones" else tuple(doc[key])
        return dataclasses.replace(base, **doc)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def apply_overrides(sc, args):
    over = {}
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    if getattr(args, "algo", None) is not None:
        over["algorithm"] = args.algo
    if getattr(args, "slots", None) is not None:
        over["slots"] = args.slots
    try:
        return dataclasses.replace(sc, **over)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def parse_values(text, axis):
    """Comma list, with inclusive `a..b` integer ranges; loop caps as AxB."""
    items = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..")
            items.extend(range(int(lo), int(hi) + 1))
        elif axis == "loop_caps":
            items.append(part)
        elif axis == "deployment_fraction":
            items.append(float(part))
        else:
            items.append(int(part))
    if not items:
        raise ConfigError("empty value list")
    return items


def _fmt(x):
    return repr(float(x))


def write_summary(result, out_dir):
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as f:
        json.dump(result.summary(), f, sort_keys=True, indent=1)
        f.write("\n")
    return path


def write_users_csv(result, out_dir):
    path = os.path.join(out_dir, "users.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["user_id", "serving_bs", "tier", "R_bps", "is_edge"])
        for k in range(result.throughput_bps.size):
            n = int(result.serving_bs[k])
            w.writerow([k, n, result.network.base_stations[n].tier,
                        _fmt(result.throughput_bps[k]), int(result.is_edge[k])])
    return path


def write_powers_csv(result, out_dir):
    path = os.path.join(out_dir, "powers.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["slot", "bs", "subchannel", "watts"])
        w.writerows([*slot_bs_sub, _fmt(p)] for slot_bs_sub, p in np.ndenumerate(result.powers))
    return path


def write_protocol_csv(result, out_dir):
    path = os.path.join(out_dir, "protocol.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["slot", "sender", "receiver", "message_type", "bytes"])
        if result.scenario.algorithm == "refim":  # the only algorithm with feedback
            for slot, counts in enumerate(result.published_users):
                w.writerows(reference.protocol_rows(result.network, slot, counts))
    return path


def print_metrics(result):
    print(f"{'metric':<8}{'bps':>16}")
    for name, value in (("GAT", result.gat_bps), ("AET", result.aet_bps),
                        ("AAT", result.aat_bps)):
        print(f"{name:<8}{value:>16.6g}")


def cmd_run(args):
    sc = apply_overrides(load_scenario(args.config), args)
    result = engine.run(sc, record=args.dump_powers or args.dump_protocol)
    os.makedirs(args.out, exist_ok=True)
    write_summary(result, args.out)
    write_users_csv(result, args.out)
    if args.dump_powers:
        write_powers_csv(result, args.out)
    if args.dump_protocol:
        write_protocol_csv(result, args.out)
    print_metrics(result)
    return 0


def cmd_sweep(args):
    sc = apply_overrides(load_scenario(args.config), args)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown axis {args.axis!r}; expected one of {SWEEP_AXES}")
    try:  # every value is parsed and its scenario built (so validated) before any run
        values = parse_values(args.values, args.axis)
        for v in values:
            engine.scenario_for_axis(sc, args.axis, v)
    except ValueError as e:
        raise ConfigError(f"bad {args.axis} values {args.values!r}: {e}") from e
    results = engine.sweep(sc, args.axis, values)
    if args.axis == "split_ratio":
        sharing = engine.run(dataclasses.replace(sc, spectrum_policy="sharing"))
        results.append(("sharing", sharing))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["axis", "value", "gat_bps", "aet_bps", "aat_bps", "seed", "config_hash"])
        for value, res in results:
            w.writerow([args.axis, value, _fmt(res.gat_bps), _fmt(res.aet_bps),
                        _fmt(res.aat_bps), res.scenario.seed, res.config_hash])
    for value, res in results:
        print(f"{args.axis}={value}: GAT {res.gat_bps:.6g}  AET {res.aet_bps:.6g}  "
              f"AAT {res.aat_bps:.6g}")
    return 0


def cmd_oracle(args):
    sc = apply_overrides(load_scenario(args.config), args)
    if args.levels < 2:
        raise ConfigError("--levels must be >= 2")
    net = engine.build_network(sc)
    chan = channel.Channel(sc, net)
    budgets, masks, _ = engine.power_limits(net, sc)
    weights = np.ones(net.n_users)
    bw_sub = net.bandwidth_hz / net.subchannel_count
    scores = compare_to_oracle(chan.gains(), chan.noise, net.cells(), weights,
                               budgets, masks, net.neighbor_sets, levels=args.levels,
                               subchannel_bw_hz=bw_sub, sinr_gap=chan.sinr_gap)
    h_star = scores["oracle"]
    print(f"{'algorithm':<10}{'objective':>16}{'ratio':>10}")
    print(f"{'oracle':<10}{h_star:>16.6g}{100.0:>9.2f}%")
    for algo in ("refim", "wf", "eq"):
        print(f"{algo:<10}{scores[algo]:>16.6g}{100.0 * scores[algo] / h_star:>9.2f}%")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="refimsim",
                                     description="Multi-cell downlink interference "
                                                 "management simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("config", help="preset name or JSON config path")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--algo", choices=engine.ALGORITHMS)
    p_run.add_argument("--slots", type=int)
    p_run.add_argument("--dump-powers", action="store_true")
    p_run.add_argument("--dump-protocol", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sw = sub.add_parser("sweep", help="run one scenario across an axis")
    p_sw.add_argument("config")
    p_sw.add_argument("--axis", required=True)
    p_sw.add_argument("--values", required=True)
    p_sw.add_argument("--seed", type=int)
    p_sw.add_argument("--algo", choices=engine.ALGORITHMS)
    p_sw.add_argument("--out", default="out")
    p_sw.set_defaults(func=cmd_sweep)

    p_or = sub.add_parser("oracle", help="score algorithms against brute force")
    p_or.add_argument("config")
    p_or.add_argument("--seed", type=int)
    p_or.add_argument("--levels", type=int, default=9)
    p_or.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InstanceTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
