"""Command-line interface.

Commands: count | twopoint | table | fixedpoint | sample | couple |
pattern | verify.  Exit codes: 0 success, 1 invalid input, 2 budget
exhaustion.  Flags override config-file values; SAWLAB_CACHE overrides
the cache path.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .counting import (CountTable, asymptotic_table, count_ending_at,
                       count_extensions, count_saws, count_two_sided,
                       truncated_two_point)
from .coupling import CouplingSchedule, estimate_decoupling_stats
from .errors import BudgetExceededError, RejectionBudgetExceededError, SawLabError
from .lattice import Path, TwoSidedPath, validate
from .patterns import build_density_report
from .sampling import SamplerConfig, SawSampler
from .spectral import build_escape_matrix, compare_to_marginal, perron_fixed_point
from .store import (ArtifactWriter, CorpusWriter, CountCache, RunConfig,
                    load_config, resolve_cache_path)

_SAMPLE_CHUNK = 1024  # walks per batch in `sample`, so memory stays O(chunk * n)


def _parse_codes(text: str) -> list[int]:
    if not text:
        return []
    return [int(tok) for tok in text.replace(",", " ").split()]


def _parse_point(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # present on the main parser and again on every subparser, so the
    # flags work on either side of the command; the subparser copies
    # SUPPRESS their defaults so they never clobber values parsed earlier
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default,
                        help="key=value config file (INI sections)")
    parser.add_argument("--seed", type=int, default=default, help="random seed")
    parser.add_argument("--stream", type=int, default=default,
                        help="stream id for parallel draws")
    parser.add_argument("--workers", type=int, default=default,
                        help="enumeration worker count")
    parser.add_argument("--budget", type=int, default=default,
                        help="enumeration node budget")
    parser.add_argument("--outdir", default=default, help="artifact directory")
    parser.add_argument("--cache", default=default,
                        help="count cache path (JSON lines)")


@functools.cache  # one tree per process: main may run many commands in one
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)

    parser = argparse.ArgumentParser(
        prog="sawlab",
        description="Self-avoiding-walk laboratory: exact counts, fixed "
                    "points, exact samplers, couplings and pattern statistics.",
    )
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("count", help="exact walk counts")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--endpoint", help="count walks ending at this point, e.g. '1,0'")
    p.add_argument("--prefix", help="count walks starting with these codes, e.g. '0,2'")
    p.add_argument("--two-sided", nargs=2, type=int, metavar=("M", "N"),
                   help="count two-sided walks with side lengths M and N")
    p.add_argument("--pos-prefix", help="positive-side condition codes for --two-sided")
    p.add_argument("--neg-prefix", help="negative-side condition codes for --two-sided")

    p = add_parser("twopoint", help="truncated two-point sum at a vertex")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--point", required=True)
    p.add_argument("-N", "--max-length", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)

    p = add_parser("table", help="counts/ratios/roots/non-intersection table")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = add_parser("fixedpoint", help="escape-matrix fixed point on SAW_n")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iters", type=int, default=10 ** 6)
    p.add_argument("--starts", type=int, default=3)
    p.add_argument("--marginal-horizon", type=int,
                   help="also report the TV distance to the length-n marginal at this horizon")
    p.add_argument("--dump-vector", action="store_true",
                   help="write the full fixed-point vector as CSV")

    p = add_parser("sample", help="draw exact uniform walks into a corpus file")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--base-length", type=int)

    p = add_parser("couple", help="run the iterative coupling and decay table")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--prefix1", required=True, help="codes, e.g. '0'")
    p.add_argument("--prefix2", required=True)
    p.add_argument("-N", "--horizon", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--schedule-base", type=float, default=2.0)
    p.add_argument("--schedule-scale", type=float)
    p.add_argument("--log-traces", type=int, default=0,
                   help="write this many individual trace logs (JSON lines)")

    p = add_parser("pattern", help="pattern-density report")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--pattern", required=True, help="codes, e.g. '0,2'")
    p.add_argument("--exact-max", type=int, default=0,
                   help="largest length for exact means (0 = none)")
    p.add_argument("--mc-lengths", default="",
                   help="comma-separated lengths for Monte Carlo stats")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--reference-sides", nargs=2, type=int, metavar=("M", "N"),
                   help="two-sided reference probability at these side lengths")

    p = add_parser("verify", help="run the exact-identity suite")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", "--n-max", type=int, required=True)
    return parser


def _runtime(args) -> tuple[RunConfig, CountTable, ArtifactWriter]:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.stream is not None:
        overrides["stream_id"] = args.stream
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.budget is not None:
        overrides["node_budget"] = args.budget
    if args.outdir is not None:
        overrides["outdir"] = args.outdir
    if args.cache is not None:
        overrides["cache_path"] = args.cache
    if getattr(args, "d", None) is not None:
        overrides["dimension"] = args.d
    if getattr(args, "base_length", None) is not None:
        overrides["base_length"] = args.base_length
    cfg = cfg.replace(**overrides)
    cache_path = resolve_cache_path(cfg.cache_path)
    store = CountCache(cache_path) if cache_path else None
    table = CountTable(cfg.dimension, store)
    return cfg, table, ArtifactWriter(cfg.outdir)


def _sampler_config(cfg: RunConfig) -> SamplerConfig:
    return SamplerConfig(seed=cfg.seed, base_length=cfg.base_length,
                         max_rejections=cfg.max_rejections,
                         stream_id=cfg.stream_id)


def _cmd_count(args, cfg, table, artifacts) -> int:
    if args.two_sided:
        m, n = args.two_sided
        xi = None
        if args.pos_prefix or args.neg_prefix:
            xi = TwoSidedPath(
                validate(_parse_codes(args.neg_prefix or ""), args.d),
                validate(_parse_codes(args.pos_prefix or ""), args.d),
            )
        value = count_two_sided(args.d, m, n, xi, table=table,
                                workers=cfg.workers, node_budget=cfg.node_budget)
    elif args.endpoint:
        value = count_ending_at(args.d, args.n, _parse_point(args.endpoint),
                                table=table, node_budget=cfg.node_budget)
    elif args.prefix:
        prefix = validate(_parse_codes(args.prefix), args.d)
        value = count_extensions(args.d, args.n, prefix, table=table,
                                 workers=cfg.workers, node_budget=cfg.node_budget)
    else:
        value = count_saws(args.d, args.n, table=table, workers=cfg.workers,
                           node_budget=cfg.node_budget)
    print(value)
    return 0


def _cmd_twopoint(args, cfg, table, artifacts) -> int:
    value = truncated_two_point(args.d, _parse_point(args.point),
                                args.max_length, args.mu, table=table,
                                node_budget=cfg.node_budget)
    print(f"{value:.12g}")
    return 0


def _cmd_table(args, cfg, table, artifacts) -> int:
    result = asymptotic_table(args.d, args.n_max, table=table,
                              workers=cfg.workers, node_budget=cfg.node_budget)
    rows = [["n", "count", "ratio", "root", "amplitude"]]
    for r in result.rows:
        rows.append([
            r.n, r.count,
            "" if r.ratio is None else float(r.ratio),
            "" if r.root is None else r.root,
            "" if r.amplitude is None else float(r.amplitude),
        ])
    path = artifacts.write_csv(f"table-d{args.d}", rows)
    nrows = [["m", "nonintersection"]]
    nrows += [[m, float(v)] for m, v in result.nonintersection]
    npath = artifacts.write_csv(f"nonintersection-d{args.d}", nrows)
    for row in rows:
        print(*row)
    print(f"wrote {path} and {npath}")
    return 0


def _cmd_fixedpoint(args, cfg, table, artifacts) -> int:
    matrix = build_escape_matrix(args.d, args.n, max_paths=cfg.max_matrix_paths)
    result = perron_fixed_point(matrix, tol=args.tol, max_iters=args.max_iters,
                                starts=args.starts, seed=cfg.seed)
    report = result.report_dict()
    if args.marginal_horizon:
        comparison = compare_to_marginal(result, args.marginal_horizon,
                                         table=table, workers=cfg.workers)
        report["marginal_horizon"] = args.marginal_horizon
        report["marginal_tv"] = comparison.tv_distance
    path = artifacts.write_json(f"fixedpoint-d{args.d}-n{args.n}", report)
    print(f"Z = {result.eigenvalue:.12g}, residual = {result.residual:.3e}, "
          f"iterations = {result.iterations}, size = {matrix.size}")
    if args.marginal_horizon:
        print(f"TV to marginal at m={args.marginal_horizon}: "
              f"{report['marginal_tv']:.6f}")
    print(f"wrote {path}")
    if args.dump_vector:
        rows = [["index", "steps", "probability"]]
        kept = result.matrix.kept_paths()
        for i, codes in enumerate(kept):
            rows.append([i, " ".join(map(str, codes)),
                         repr(float(result.measure.values[i]))])
        vec_path = artifacts.write_csv(f"fixedpoint-vector-d{args.d}-n{args.n}", rows)
        print(f"wrote {vec_path}")
    return 0


def _level_meta(level_counts) -> list[dict]:
    """A sampler's per-level dimerization counts, for a sidecar."""
    return [{"n": n, "accepted": accepted, "attempted": attempted}
            for n, (accepted, attempted) in sorted(level_counts.items())]


def _cmd_sample(args, cfg, table, artifacts) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be non-negative")
    sampler = SawSampler(args.d, _sampler_config(cfg))
    # draws nothing, but refuses a length it cannot draw before the corpus
    # file is reserved
    sampler.uniform_batch(args.n, 0)
    path = artifacts.reserve(f"corpus-d{args.d}-n{args.n}", ".sawc")
    with CorpusWriter(path) as writer:
        for start in range(0, args.trials, _SAMPLE_CHUNK):
            rows = sampler.uniform_batch(args.n, min(_SAMPLE_CHUNK, args.trials - start))
            for row in rows:
                writer.write(Path(args.d, row.tobytes()))
    artifacts.finalize(path, {"dimerization_levels":
                              _level_meta(sampler._level_counts)})
    print(f"wrote {args.trials} walks to {path}")
    return 0


def _cmd_couple(args, cfg, table, artifacts) -> int:
    prefix1 = validate(_parse_codes(args.prefix1), args.d)
    prefix2 = validate(_parse_codes(args.prefix2), args.d)
    k = len(prefix1)
    schedule = CouplingSchedule.geometric(k, args.horizon,
                                          base=args.schedule_base,
                                          scale=args.schedule_scale)
    sampler_cfg = _sampler_config(cfg)
    stats = estimate_decoupling_stats(args.d, prefix1, prefix2, schedule,
                                      args.horizon, args.trials, sampler_cfg)
    rows = [["l", "a_l", "failures", "trials", "p_hat", "ci_low", "ci_high"]]
    for r in stats.decay:
        rows.append([r.index, r.block_end, r.failures, r.trials,
                     r.p_hat, r.ci_low, r.ci_high])
    rows.append([])
    rows.append(["shift", "disagreements", "trials", "p_hat", "ci_low", "ci_high"])
    for r in stats.tails:
        rows.append([r.shift, r.disagreements, r.trials, r.p_hat,
                     r.ci_low, r.ci_high])
    path = artifacts.write_csv(f"coupling-decay-d{args.d}", rows)
    for r in stats.decay:
        print(f"l={r.index} a_l={r.block_end} failure={r.p_hat:.5f} "
              f"[{r.ci_low:.5f}, {r.ci_high:.5f}]")
    if args.log_traces:
        records = []
        for trial in range(min(args.log_traces, args.trials)):
            trace = stats.batch.trace(trial)
            records.append({
                "trial": trial,
                "schedule": list(schedule.values),
                "per_iter": trace.record_dicts(),
                "final_equal_from": trace.final_equal_from(),
            })
        tr_path = artifacts.write_jsonl(f"coupling-traces-d{args.d}", records)
        print(f"wrote {tr_path}")
    print(f"wrote {path}")
    return 0


def _cmd_pattern(args, cfg, table, artifacts) -> int:
    pattern = validate(_parse_codes(args.pattern), args.d)
    exact_lengths = (range(len(pattern), args.exact_max + 1)
                     if args.exact_max else [])
    mc_lengths = _parse_codes(args.mc_lengths)
    reference = tuple(args.reference_sides) if args.reference_sides else None
    report = build_density_report(args.d, pattern, exact_lengths, mc_lengths,
                                  args.trials, _sampler_config(cfg),
                                  reference_sides=reference, table=table)
    # per Monte Carlo length, its sampler's dimerization counts
    meta = {"dimerization_levels": {str(row.n): _level_meta(row.mc.level_counts)
                                    for row in report.rows if row.mc}}
    json_path = artifacts.write_json(f"pattern-d{args.d}", report.to_json_dict(),
                                     meta)
    csv_path = artifacts.write_csv(f"pattern-grid-d{args.d}", report.to_csv_rows(),
                                   meta)
    for row in report.to_csv_rows():
        print(*row)
    print(f"wrote {json_path} and {csv_path}")
    return 0


def _cmd_verify(args, cfg, table, artifacts) -> int:
    from .verify import run_verify  # the oracles load only for this command

    results = run_verify(args.d, args.n_max, table=table)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


_HANDLERS = {
    "count": _cmd_count,
    "twopoint": _cmd_twopoint,
    "table": _cmd_table,
    "fixedpoint": _cmd_fixedpoint,
    "sample": _cmd_sample,
    "couple": _cmd_couple,
    "pattern": _cmd_pattern,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg, table, artifacts = _runtime(args)
        return _HANDLERS[args.command](args, cfg, table, artifacts)
    except (BudgetExceededError, RejectionBudgetExceededError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except (SawLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
