"""Span tracing around the package's layer boundaries, and the per-layer report.

``install`` wraps public functions of ``multisimul`` at every module that
binds them (the call sites), so the package itself is never edited. Spans are
kept in memory as flat columns and written to one ``.npz`` file when the job
ends; ``layer_report`` turns the spans of one traced job into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# layer of a span = the part of its name before the first dot
LAYERS = ("simul", "mock_mt", "metrics", "corpus", "noise", "independence")
LENGTH_BUCKETS = (("le10", 10), ("le20", 20), ("le40", 40), ("gt40", None))


class Tracer:
    """In-memory spans: name, start, end, parent, job, row and two work numbers.

    ``job`` is the index of the CLI command in the workload; ``row`` counts
    the sweep's per-system corpus runs. ``work``/``aux`` hold the quantity a
    span processed (tokens, cells, resamples...), defined per span name.
    ``job_start``/``job_end`` bound the timed job on the same clock.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.row = array("i")
        self.work = array("d")
        self.aux = array("d")
        self.stack: list[int] = []
        self.job_index = 0
        self.row_index = 0
        self.counters: Counter = Counter()
        self.job_start = self.job_end = 0.0

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_index)
        self.row.append(self.row_index)
        self.end.append(0.0)
        self.work.append(0.0)
        self.aux.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            row=np.frombuffer(self.row, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.float64),
            aux=np.frombuffer(self.aux, dtype=np.float64),
            counter_keys=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
            job_window=np.array([self.job_start, self.job_end]),
        )


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every multisimul module."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "multisimul" or mod_name.startswith("multisimul."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _wrap(tracer: Tracer, original, name: str, measure=None):
    """A traced stand-in; ``measure(args, kwargs, result)`` gives (work, aux)."""
    name_id = tracer.name(name)

    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            tracer.work[idx], tracer.aux[idx] = measure(args, kwargs, result)
        return result

    return traced


def _la_updates(log, simul) -> tuple[int, int]:
    """(updates, updates that committed >= 1 token) from a run_simul event log.

    Every Read is one update; it committed when a Write follows it before the
    next Read. Writes after the Flush are the final flush, not an update.
    """
    updates = committing = 0
    pending = False
    for event in log.events:
        if isinstance(event, simul.ReadEvent):
            updates += 1
            pending = True
        elif isinstance(event, simul.WriteEvent) and pending:
            committing += 1
            pending = False
        elif isinstance(event, simul.FlushEvent):
            break
    return updates, committing


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions at their call sites."""
    from multisimul import cli, corpus, independence, metrics, mock_mt, noise, simul

    single_id = tracer.name("simul.single")
    multi_id = tracer.name("simul.multi")
    run_simul = simul.run_simul

    def traced_run_simul(translators, sources, n, **kwargs):
        idx = tracer.open(multi_id if len(sources) > 1 else single_id)
        try:
            result = run_simul(translators, sources, n, **kwargs)
        finally:
            tracer.close(idx)
        lengths = [len(s.tokens) for s in sources.values()]
        tracer.work[idx] = sum(lengths)
        tracer.aux[idx] = max(lengths)
        updates, committing = _la_updates(result[1], simul)
        tracer.counters["la_updates"] += updates
        tracer.counters["la_committing_updates"] += committing
        return result

    _replace_everywhere(run_simul, traced_run_simul)

    decode_id = tracer.name("mock_mt.decode")
    decode = mock_mt.LexiconTranslator.decode

    def traced_decode(self, source_prefix, forced_target, vocab, final=False):
        idx = tracer.open(decode_id)
        try:
            return decode(self, source_prefix, forced_target, vocab, final)
        finally:
            tracer.close(idx)
            tracer.work[idx] = len(forced_target)

    mock_mt.LexiconTranslator.decode = traced_decode

    def hyps_count(args, kwargs, result):
        return len(args[0]), 0

    def bootstrap_work(args, kwargs, result):
        # aux: segments BLEU-scored (and so tokenized), both systems
        bleu_segments = 2 * len(args[0]) if kwargs.get("metric", "bleu") == "bleu" else 0
        return result.resamples, bleu_segments

    def cells(args, kwargs, result):
        return len(args[0]) * len(args[1]), 0

    def tokens_in(args, kwargs, result):
        return sum(len(s) for s in args[1]), 0

    def links(args, kwargs, result):
        return result.aligned_link_count, 0

    def rows(original):
        def counted(*args, **kwargs):
            tracer.row_index += 1
            return original(*args, **kwargs)

        return counted

    targets = [
        (metrics.bleu, "metrics.bleu", hyps_count),
        (metrics.chrf2, "metrics.chrf2", hyps_count),
        (metrics.paired_bootstrap, "metrics.paired_bootstrap", bootstrap_work),
        (metrics.align_edit, "metrics.align_edit", cells),
        (metrics.average_lagging, "metrics.average_lagging", None),
        (metrics.normalized_erasure, "metrics.normalized_erasure", None),
        (corpus.tokenize_13a, "corpus.tokenize_13a", None),
        (cli._read_lines, "corpus.load", None),
        (corpus.load_parallel, "corpus.load", None),
        (corpus.load_transcript_pairs, "corpus.load", None),
        (corpus.load_word_alignment, "corpus.load", None),
        (mock_mt.load_lexicon, "corpus.load", None),
        (noise.load_model, "corpus.load", None),
        (noise.train_noise_model, "noise.train_noise_model", None),
        (noise.apply_noise_corpus, "noise.apply_noise_corpus", tokens_in),
        (noise.rescale_to_wer, "noise.rescale_to_wer", None),
        (independence.analyze_independence, "independence.analyze", links),
    ]
    for original, name, measure in targets:
        _replace_everywhere(original, _wrap(tracer, original, name, measure))
    cli._run_system = rows(cli._run_system)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def nesting_problems(spans, self_time: np.ndarray, eps: float = 1e-6) -> list[str]:
    """Why the spans do not nest: a child outside its parent, a parent shorter
    than its children, or a root span outside the timed job."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    job_start, job_end = spans["job_window"]
    child = np.flatnonzero(parent >= 0)
    roots = parent < 0
    problems = []
    outside = (start[child] < start[parent[child]]) | (end[child] > end[parent[child]])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans lie outside their parent")
    if (self_time < -eps).any():
        problems.append(f"{int((self_time < -eps).sum())} spans are shorter than their children")
    if (start[roots] < job_start).any() or (end[roots] > job_end).any():
        problems.append("a root span lies outside the timed job")
    return problems


def layer_report(spans) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """Per-layer metrics of one traced job.

    Returns (metrics, exact counts, nesting problems). Self time is a span's
    duration minus its children's, and ``cli.self_s`` is the job time no root
    span covers, so the layers' self times plus ``cli.self_s`` make up the
    traced ``job_s``; the nesting checks are what make that sum meaningful.
    """
    names = [str(n) for n in spans["names"]]
    name_id = spans["name_id"]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    work, aux = spans["work"], spans["aux"]
    counters = dict(zip((str(k) for k in spans["counter_keys"]), (int(v) for v in spans["counter_values"])))
    job_start, job_end = (float(t) for t in spans["job_window"])
    job_s = job_end - job_start

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    problems = nesting_problems(spans, self_time)

    def mask(name: str) -> np.ndarray:
        return name_id == names.index(name) if name in names else np.zeros(len(dur), bool)

    def busy(name: str) -> float:
        return float(dur[mask(name)].sum())

    def calls(name: str) -> int:
        return int(mask(name).sum())

    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    span_layer = layer_of[name_id] if len(dur) else np.array([], dtype=str)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())
    out["cli.self_s"] = job_s - float(dur[~has_parent].sum())
    out["trace.job_s"] = job_s
    if out["cli.self_s"] < -1e-6:
        problems.append(f"root spans cover {-out['cli.self_s']:.3g} s more than the job")

    single, multi = mask("simul.single"), mask("simul.multi")
    both = single | multi
    n_runs = int(both.sum())
    out["simul.run_simul.calls"] = n_runs
    for label, m in (("single", single), ("multi", multi)):
        out[f"simul.{label}.p50_ms"] = _pct(dur[m] * 1e3, 50)
        out[f"simul.{label}.p99_ms"] = _pct(dur[m] * 1e3, 99)
    mean_single = float(dur[single].mean()) if single.any() else 0.0
    mean_multi = float(dur[multi].mean()) if multi.any() else 0.0
    out["simul.multi_over_single"] = _rate(mean_multi, mean_single)
    lower = 0
    for label, upper in LENGTH_BUCKETS:
        in_bucket = both & (aux > lower) & ((aux <= upper) if upper is not None else True)
        out[f"simul.ms_per_src_token.{label}"] = _rate(
            float(dur[in_bucket].sum()) * 1e3, float(work[in_bucket].sum())
        )
        lower = upper if upper is not None else lower
    out["simul.la_commit_ratio"] = _rate(
        counters.get("la_committing_updates", 0), counters.get("la_updates", 0)
    )

    decode = mask("mock_mt.decode")
    out["mock_mt.decode.calls"] = int(decode.sum())
    out["mock_mt.decode.calls_per_sentence"] = _rate(int(decode.sum()), n_runs)
    out["mock_mt.decode.forced_tokens"] = float(work[decode].sum())
    out["mock_mt.decode.busy_s"] = busy("mock_mt.decode")

    for name in ("bleu", "chrf2", "paired_bootstrap", "average_lagging"):
        out[f"metrics.{name}.busy_s"] = busy(f"metrics.{name}")
    boot = mask("metrics.paired_bootstrap")
    out["metrics.paired_bootstrap.resamples_per_s"] = _rate(float(work[boot].sum()), busy("metrics.paired_bootstrap"))
    align = mask("metrics.align_edit")
    out["metrics.align_edit.calls"] = int(align.sum())
    out["metrics.align_edit.cells_per_s"] = _rate(float(work[align].sum()), busy("metrics.align_edit"))

    bleu_scored = float(work[mask("metrics.bleu")].sum()) + float(aux[boot].sum())
    out["corpus.tokenize_13a.calls"] = calls("corpus.tokenize_13a")
    out["corpus.tokenize_13a.calls_per_scored_segment"] = _rate(calls("corpus.tokenize_13a"), bleu_scored)
    out["corpus.load.busy_s"] = busy("corpus.load")

    out["noise.train_noise_model.busy_s"] = busy("noise.train_noise_model")
    out["noise.apply_noise_corpus.busy_s"] = busy("noise.apply_noise_corpus")
    apply = mask("noise.apply_noise_corpus")
    out["noise.apply.tokens_per_s"] = _rate(float(work[apply].sum()), busy("noise.apply_noise_corpus"))
    out["noise.rescale_to_wer.calls"] = calls("noise.rescale_to_wer")

    analyze = mask("independence.analyze")
    out["independence.analyze.busy_s"] = busy("independence.analyze")
    out["independence.links_per_s"] = _rate(float(work[analyze].sum()), busy("independence.analyze"))

    exact = {
        "spans": len(dur),
        "simul.run_simul.calls": n_runs,
        "mock_mt.decode.calls": int(decode.sum()),
        "mock_mt.decode.forced_tokens": int(work[decode].sum()),
        "corpus.tokenize_13a.calls": calls("corpus.tokenize_13a"),
        "metrics.align_edit.calls": int(align.sum()),
        "noise.rescale_to_wer.calls": calls("noise.rescale_to_wer"),
        "la_updates": counters.get("la_updates", 0),
        "la_committing_updates": counters.get("la_committing_updates", 0),
    }
    return out, exact, problems
