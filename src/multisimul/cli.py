"""Command-line harness: scoring, noise, independence, simulation, and sweeps."""

from __future__ import annotations

import argparse
import math
import re
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import metrics, noise
from .corpus import (
    TokenSequence,
    _read_lines,
    check_line_counts,
    load_parallel,
    load_transcript_pairs,
    load_word_alignment,
    read_aligned,
)
from .errors import (
    ConfigError,
    ContractError,
    EngineError,
    InputError,
    MultisimulError,
    UnattainableWerError,
)
from .independence import analyze_independence
from .mock_mt import LexiconTranslator, load_lexicon
from .simul import EOS, run_simul

__all__ = ["main"]

MULTI = "multi"  # the sweep's multi-source system
SCORE_NAMES = ("bleu", "chrf2", "al", "ne")
NE = 0.0  # LA-n output is append-only, so normalized erasure is 0 by construction


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _mean_or_zero(values: Sequence[float]) -> float:
    """Mean of per-sentence AL values; 0 when every sentence was left out."""
    return sum(values) / len(values) if values else 0.0


def _check_output(path: str | Path, flag: str, directory: bool = False) -> Path:
    """Refuse an output path that could not be written, before any work runs.

    A file's directory must exist and the file must not be a directory; a
    directory, made with its parents, must not lie under a regular file.
    """
    path = Path(path)
    folder = path if directory else path.parent
    existing = next(p for p in (folder, *folder.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"{flag} {path}: {existing} is not a directory")
    if not directory and existing != folder:
        raise InputError(f"{flag} {path}: directory {folder} does not exist")
    if not directory and path.is_dir():
        raise InputError(f"{flag} {path}: is a directory")
    return path


def _write_tsv(path: Path, rows: Iterable[Sequence[str]]) -> None:
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def cmd_score(args: argparse.Namespace) -> int:
    compare = [] if args.compare is None else [args.compare]
    if compare and args.resamples < 100:
        raise ConfigError(f"--resamples needs at least 100, got {args.resamples}")
    if compare and args.seed < 0:
        raise ConfigError(f"--seed needs a value >= 0, got {args.seed}")
    hyps, *refs = read_aligned([args.hyps, *args.refs, *compare])
    sys_b = refs.pop() if compare else None
    if not hyps:
        raise InputError(f"{args.hyps} has no segments to score")
    if sys_b is None:
        scores = {"bleu": metrics.bleu(hyps, refs), "chrf2": metrics.chrf2(hyps, refs)}
        p_rows = []
    else:
        # the bootstrap's own statistics also give system A's corpus scores
        results = {
            metric: metrics.paired_bootstrap(
                hyps, sys_b, refs, metric=metric,
                resamples=args.resamples, seed=args.seed,
            )
            for metric in ("bleu", "chrf2")
        }
        scores = {metric: result.score_a for metric, result in results.items()}
        p_rows = [
            (f"{metric}_bootstrap_p", f"{result.p_value:.4f}", str(result.seed))
            for metric, result in results.items()
        ]
    for row in [(metric, f"{score:.4f}") for metric, score in scores.items()] + p_rows:
        print("\t".join(row))
    return 0


def cmd_noise_train(args: argparse.Namespace) -> int:
    _check_output(args.out, "--out")
    pairs = load_transcript_pairs(
        args.gold, args.asr,
        lowercase=not args.keep_case, strip_punct=args.strip_punct,
    )
    if not any(pair.gold.tokens for pair in pairs):
        raise InputError(f"{args.gold} has no gold tokens to train on")
    model = noise.train_noise_model(pairs)
    noise.save_model(model, args.out)
    _progress(
        f"trained model: p_insert={model.p_insert:.6f} p_delete={model.p_delete:.6f} "
        f"p_substitute={model.p_substitute:.6f}"
    )
    print(f"model written to {args.out}")
    return 0


def cmd_noise_apply(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed needs a value >= 0, got {args.seed}")
    output = _check_output(args.output, "--out")
    model = noise.load_model(args.model)
    if args.target_wer is not None:
        if not 0 <= args.target_wer < math.inf:
            raise ConfigError(f"--target-wer needs a finite value >= 0, got {args.target_wer}")
        model = noise.rescale_to_wer(model, args.target_wer)
        _progress(f"rescaled by c={model.scale_c:.6f}")
    sentences = [TokenSequence.from_raw(line) for line in _read_lines(args.input)]
    noised = noise.apply_noise_corpus(model, sentences, args.seed)
    output.write_text("".join(seq.raw + "\n" for seq in noised), encoding="utf-8")
    print(f"noised {len(noised)} sentences to {args.output}")
    return 0


def cmd_independence(args: argparse.Namespace) -> int:
    if not 0 < args.alpha < 1:
        raise ConfigError(f"--alpha needs a value in (0, 1), got {args.alpha}")
    src_pairs = load_transcript_pairs(
        args.src_gold, args.src_asr,
        lowercase=not args.keep_case, strip_punct=args.strip_punct,
    )
    tgt_pairs = load_transcript_pairs(
        args.tgt_gold, args.tgt_asr,
        lowercase=not args.keep_case, strip_punct=args.strip_punct,
    )
    alignments = load_word_alignment(args.align)
    check_line_counts(
        [(args.src_gold, len(src_pairs)), (args.tgt_gold, len(tgt_pairs)),
         (args.align, len(alignments))]
    )
    if not any(pair.gold.tokens for pair in src_pairs):
        raise InputError(f"{args.src_gold} has no gold tokens")
    report = analyze_independence(
        src_pairs, tgt_pairs, alignments, alpha=args.alpha, yates=args.yates
    )
    cells = report.table.cells
    print(f"aligned_links\t{report.aligned_link_count}")
    print(f"coverage\t{report.coverage:.6f}")
    print(f"cell_cc\t{cells[0][0]}")
    print(f"cell_ci\t{cells[0][1]}")
    print(f"cell_ic\t{cells[1][0]}")
    print(f"cell_ii\t{cells[1][1]}")
    print(f"chi_square\t{report.chi_square.statistic:.6f}")
    print(f"p_value\t{report.chi_square.p_value:.6g}")
    print(f"reject_at_alpha\t{report.reject_independence}")
    print()
    print(report.summary())
    return 0


def _parse_lang_file(values: Sequence[str], flag: str) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for value in values:
        if "=" not in value:
            raise ConfigError(f"{flag} expects LANG=FILE, got {value!r}")
        lang, _, path = value.partition("=")
        if lang in out:
            raise ConfigError(f"{flag} repeats language {lang!r}")
        out[lang] = Path(path)
    return out


def _load_sources(
    sources: dict[str, Path], ref_paths: Sequence[str | Path]
) -> tuple[dict[str, list[TokenSequence]], list[list[str]]]:
    """Source columns and reference sets, all with the same line count."""
    columns = load_parallel(sources)
    # an EOS word would end a single-source run early but not a multi-source one
    for lang, column in columns.items():
        for lineno, sentence in enumerate(column, start=1):
            if EOS in sentence.tokens:
                raise InputError(f"{sources[lang]}: line {lineno} holds the reserved token {EOS}")
    refs = [_read_lines(path) for path in ref_paths]
    check_line_counts(
        [*zip(sources.values(), map(len, columns.values())), *zip(ref_paths, map(len, refs))]
    )
    return columns, refs


def _run_system(
    translators: dict[str, LexiconTranslator],
    source_columns: dict[str, list[TokenSequence]],
    la_n: int,
    primary: str,
) -> tuple[list[str], list[float]]:
    """Per-sentence streaming runs; returns (outputs, AL values).

    AL is undefined for a sentence whose primary source or output is empty:
    its output still counts for BLEU/chrF2, but it has no AL value, and the
    number of such sentences goes to stderr.
    """
    outputs: list[str] = []
    als: list[float] = []
    n_sentences = len(next(iter(source_columns.values())))
    for i in range(n_sentences):
        sources = {lang: col[i] for lang, col in source_columns.items()}
        final, log = run_simul(translators, sources, la_n)
        outputs.append(" ".join(final))
        if final and sources[primary].tokens:
            als.append(metrics.average_lagging(log, primary).al)
    skipped = n_sentences - len(als)
    if skipped:
        _progress(
            f"{skipped} of {n_sentences} sentences left out of AL "
            "(empty primary source or empty output)"
        )
    return outputs, als


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.la_n < 1:
        raise ConfigError(f"--la-n must be at least 1, got {args.la_n}")
    source_paths = _parse_lang_file(args.source, "--source")
    lexicon_paths = _parse_lang_file(args.lexicon, "--lexicon")
    if set(source_paths) != set(lexicon_paths):
        raise ConfigError(
            "--source and --lexicon must name the same languages, got "
            f"{','.join(source_paths)} and {','.join(lexicon_paths)}"
        )
    languages = list(source_paths)
    primary = args.primary or languages[0]
    if primary not in languages:
        raise ConfigError(f"primary language {primary!r} has no source")
    out = None if args.out is None else _check_output(args.out, "--out")
    columns, refs = _load_sources(source_paths, args.refs or [])
    translators = {
        lang: LexiconTranslator(load_lexicon(path))
        for lang, path in lexicon_paths.items()
    }
    outputs, als = _run_system(translators, columns, args.la_n, primary)
    if out is not None:
        out.write_text("".join(line + "\n" for line in outputs), encoding="utf-8")
    rows = [("al", f"{_mean_or_zero(als):.4f}"), ("ne", f"{NE:.4f}")]
    if refs:
        rows.insert(0, ("chrf2", f"{metrics.chrf2(outputs, refs):.4f}"))
        rows.insert(0, ("bleu", f"{metrics.bleu(outputs, refs):.4f}"))
    for row in rows:
        print("\t".join(row))
    return 0


@dataclass
class SweepConfig:
    languages: list[str]
    primary: str
    sources: dict[str, Path]
    lexicons: dict[str, Path]
    noise_models: dict[str, Path]
    reference: Path
    wer_grid: list[tuple[float, ...]]
    la_grid: list[int]
    seeds: list[int]


def _tradeoff_name(languages: Sequence[str], cell: tuple[float, ...]) -> str:
    # from the 4-decimal cell that results.tsv prints: 0.11496 -> 0.1150 -> 0.12
    return "tradeoff_" + "_".join(
        f"{lang}{round(w, 4):.2f}" for lang, w in zip(languages, cell)
    ) + ".tsv"


def _load_sweep_config(path: Path) -> SweepConfig:
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno} is not key=value: {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in key_lines:
            raise ConfigError(f"{path}: line {lineno} repeats key {key!r}")
        values[key], key_lines[key] = value, lineno
    if values.get("version") != "1":
        raise ConfigError(f"{path}: missing or unsupported config version")

    def require(key: str) -> str:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return values[key]

    base = path.parent
    languages = [lang.strip() for lang in require("languages").split(",") if lang.strip()]
    if not languages:
        raise ConfigError(f"{path}: languages must be non-empty")
    if len(set(languages)) != len(languages):
        raise ConfigError(f"{path}: languages must be distinct: {','.join(languages)}")
    for lang in languages:
        # a language names the trade-off files
        if not re.fullmatch(r"[\w-]+", lang):
            raise ConfigError(f"{path}: language {lang!r} needs letters, digits, '_' or '-' only")
    if MULTI in languages:
        raise ConfigError(f"{path}: {MULTI!r} names the multi-source system, not a language")
    if len(languages) < 2:
        raise ConfigError(f"{path}: the {MULTI!r} system needs at least two languages")
    known = {"version", "languages", "primary", "reference", "wer_grid", "la_grid", "seeds"}
    known |= {f"{p}.{lang}" for p in ("source", "lexicon", "noise_model") for lang in languages}
    for key, lineno in key_lines.items():
        if key not in known:
            raise ConfigError(f"{path}: line {lineno} has unknown key {key!r}")
    primary = values.get("primary", languages[0])
    if primary not in languages:
        raise ConfigError(f"{path}: primary {primary!r} not among languages")

    def per_language(prefix: str) -> dict[str, Path]:
        return {lang: base / require(f"{prefix}.{lang}") for lang in languages}

    wer_grid = []
    for cell in require("wer_grid").split(","):
        parts = cell.split(":")
        if len(parts) != len(languages):
            raise ConfigError(
                f"{path}: wer cell {cell!r} needs {len(languages)} colon-separated values"
            )
        try:
            targets = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{path}: non-numeric wer cell {cell!r}") from None
        if not all(0 <= w < math.inf for w in targets):
            raise ConfigError(f"{path}: wer cell {cell!r} needs finite targets >= 0")
        wer_grid.append(targets)

    def integers(key: str) -> list[int]:
        text = require(key)
        try:
            return [int(v) for v in text.split(",")]
        except ValueError:
            raise ConfigError(f"{path}: {key} must be integers, got {text!r}") from None

    la_grid, seeds = integers("la_grid"), integers("seeds")
    if min(la_grid) < 1:
        raise ConfigError(f"{path}: la_grid sizes must be at least 1")
    if min(seeds) < 0:
        raise ConfigError(f"{path}: seeds must be at least 0")
    # wer cells are told apart by their trade-off file, which would otherwise
    # be overwritten; any repeat would also duplicate rows and skew the stddev
    tradeoff_names = [_tradeoff_name(languages, cell) for cell in wer_grid]
    for key, items in (("wer_grid", tradeoff_names), ("la_grid", la_grid), ("seeds", seeds)):
        repeated = sorted({str(item) for item in items if items.count(item) > 1})
        if repeated:
            raise ConfigError(f"{path}: {key} repeats {', '.join(repeated)}")

    return SweepConfig(
        languages=languages,
        primary=primary,
        sources=per_language("source"),
        lexicons=per_language("lexicon"),
        noise_models=per_language("noise_model"),
        reference=base / require("reference"),
        wer_grid=wer_grid,
        la_grid=la_grid,
        seeds=seeds,
    )


def _language_stream_seed(seed: int, lang_index: int) -> int:
    # one noise seed per (config seed, language); apply_noise XORs in the
    # sentence index, so some sentences of different languages share a stream
    return seed * 1_000_003 + lang_index


@dataclass(frozen=True)
class SweepRow:
    """One sweep unit: a system at one LA size on one seed's noising of a cell.

    Scores are held as ``results.tsv`` prints them (4 decimals), so the
    summary and trade-off statistics are those of the printed values.
    """

    cell: tuple[float, ...]
    system: str
    la_n: int
    seed: int
    bleu: float
    chrf2: float
    al: float

    @property
    def scores(self) -> tuple[float, float, float, float]:
        return (self.bleu, self.chrf2, self.al, NE)


def cmd_sweep(args: argparse.Namespace) -> int:
    out_dir = _check_output(args.out_dir, "--out-dir", directory=True)
    config = _load_sweep_config(Path(args.config))
    clean, refs = _load_sources(config.sources, [config.reference])
    translators = {
        lang: LexiconTranslator(load_lexicon(path))
        for lang, path in config.lexicons.items()
    }
    base_models = {
        lang: noise.load_model(path) for lang, path in config.noise_models.items()
    }
    for lang, model in base_models.items():
        dists = [model.insertion_table, *model.substitution_table.values()]
        if any(word == EOS for dist in dists for word, _ in dist):
            raise InputError(
                f"{config.noise_models[lang]}: a substitution or insertion word is "
                f"the reserved token {EOS}"
            )
    systems = {lang: [lang] for lang in config.languages}
    systems[MULTI] = config.languages

    # a rescaled model depends on the cell's target only, not on the seed; all
    # are built first, so that an unattainable target stops the sweep before any run
    cell_models = [
        {
            lang: noise.rescale_to_wer(base_models[lang], target)
            for lang, target in zip(config.languages, cell)
            if target > 0
        }
        for cell in config.wer_grid
    ]
    # made only now, so that a sweep rejected for its inputs leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[SweepRow] = []
    for cell, models in zip(config.wer_grid, cell_models):
        for seed in config.seeds:
            noised = dict(clean)
            for li, lang in enumerate(config.languages):
                if lang in models:
                    noised[lang] = noise.apply_noise_corpus(
                        models[lang], clean[lang], _language_stream_seed(seed, li)
                    )
            for la_n in config.la_grid:
                for system, langs in systems.items():
                    _progress(f"cell={cell} seed={seed} la_n={la_n} system={system}")
                    outputs, als = _run_system(
                        {lang: translators[lang] for lang in langs},
                        {lang: noised[lang] for lang in langs},
                        la_n,
                        config.primary if config.primary in langs else langs[0],
                    )
                    scores = (
                        metrics.bleu(outputs, refs),
                        metrics.chrf2(outputs, refs),
                        _mean_or_zero(als),
                    )
                    rows.append(
                        SweepRow(cell, system, la_n, seed, *(round(v, 4) for v in scores))
                    )

    _write_sweep(out_dir, config.languages, rows)
    print(f"wrote {len(rows)} result rows to {out_dir / 'results.tsv'}")
    return 0


def _write_sweep(out_dir: Path, languages: list[str], rows: list[SweepRow]) -> None:
    """results.tsv in run order, then summary.tsv (avg and stddev over seeds)
    and one (AL, BLEU) trade-off file per cell from the same groups."""

    def cell_text(cell: tuple[float, ...]) -> tuple[str, ...]:
        return tuple(f"{w:.4f}" for w in cell)

    wer_cols = tuple(f"wer_{lang}" for lang in languages)
    _write_tsv(
        out_dir / "results.tsv",
        [(*wer_cols, "system", "la_n", "seed", *SCORE_NAMES)]
        + [
            (*cell_text(r.cell), r.system, str(r.la_n), str(r.seed),
             *(f"{v:.4f}" for v in r.scores))
            for r in rows
        ],
    )
    groups: dict[tuple[tuple[str, ...], str, str], list[SweepRow]] = {}
    for row in rows:
        # keyed by the printed text, so groups sort with la_n 10 before 2
        groups.setdefault((cell_text(row.cell), row.system, str(row.la_n)), []).append(row)
    summary = [
        (*wer_cols, "system", "la_n", *(f"{m}_{s}" for m in SCORE_NAMES for s in ("avg", "std")))
    ]
    tradeoffs: dict[str, list[tuple[str, ...]]] = {}
    for (cell, system, la_n), group in sorted(groups.items()):
        per_seed = dict(zip(SCORE_NAMES, zip(*(r.scores for r in group))))
        avg = {m: f"{statistics.fmean(v):.4f}" for m, v in per_seed.items()}
        std = {m: f"{statistics.pstdev(v):.4f}" for m, v in per_seed.items()}
        summary.append((*cell, system, la_n, *(x for m in SCORE_NAMES for x in (avg[m], std[m]))))
        name = _tradeoff_name(languages, group[0].cell)
        tradeoffs.setdefault(name, [("system", "la_n", "al", "bleu")]).append(
            (system, la_n, avg["al"], avg["bleu"])
        )
    _write_tsv(out_dir / "summary.tsv", summary)
    for name, lines in tradeoffs.items():
        _write_tsv(out_dir / name, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisimul",
        description="Multi-source simultaneous translation simulation under ASR noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="BLEU/chrF2 and optional paired bootstrap")
    p.add_argument("--hyps", required=True)
    p.add_argument("--refs", required=True, nargs="+")
    p.add_argument("--compare", help="second system for paired bootstrap")
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("noise-train", help="train a lexical noise model")
    p.add_argument("--gold", required=True)
    p.add_argument("--asr", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--keep-case", action="store_true")
    p.add_argument("--strip-punct", action="store_true")
    p.set_defaults(func=cmd_noise_train)

    p = sub.add_parser("noise-apply", help="apply (optionally rescaled) noise")
    p.add_argument("--model", required=True)
    p.add_argument("--target-wer", type=float)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(func=cmd_noise_apply)

    p = sub.add_parser("independence", help="cross-lingual ASR error independence test")
    p.add_argument("--src-gold", required=True)
    p.add_argument("--src-asr", required=True)
    p.add_argument("--tgt-gold", required=True)
    p.add_argument("--tgt-asr", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--yates", action="store_true")
    p.add_argument("--keep-case", action="store_true")
    p.add_argument("--strip-punct", action="store_true")
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("simulate", help="one streaming run over a corpus")
    p.add_argument("--source", required=True, nargs="+", metavar="LANG=FILE")
    p.add_argument("--lexicon", required=True, nargs="+", metavar="LANG=FILE")
    p.add_argument("--la-n", type=int, default=2)
    p.add_argument("--primary")
    p.add_argument("--refs", nargs="+")
    p.add_argument("--out", help="write final outputs to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="noise x latency grid with single and multi systems")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:  # an OSError names the path it failed on
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, UnattainableWerError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (ContractError, EngineError) as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 4
    except MultisimulError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
