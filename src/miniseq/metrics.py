"""Evaluation metrics and the append-only training metrics log.

BLEU and WER take token lists and are sums over sentence pairs, so they
score a corpus in slices of _PAIRS_PER_SLICE pairs. Within a slice, each
distinct token becomes an integer and the work runs on integer arrays for
all sentences at once: BLEU keys every n-gram of every sentence as one
integer and takes the clipped counts from np.unique, and WER fills the
Levenshtein tables one hypothesis position at a time for all sentences
together. The counts are exact integers and the final float formulas are
those of the per-sentence definitions, so the scores are too.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

# Enough pairs that numpy's per-call cost is spread thin, few enough that a
# slice's temporaries stay small whatever the corpus size.
_PAIRS_PER_SLICE = 256


def _slices(hypotheses: list, references: list):
    """(token ids of the slice's hypotheses then references, their lengths)
    for each slice of sentence pairs."""
    for start in range(0, len(hypotheses), _PAIRS_PER_SLICE):
        stop = start + _PAIRS_PER_SLICE
        sequences = list(hypotheses[start:stop]) + list(references[start:stop])
        tokens = list(itertools.chain.from_iterable(sequences))
        index = {tok: i for i, tok in enumerate(dict.fromkeys(tokens))}
        yield (np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens)),
               np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences)))


def _clipped_matches(flat: np.ndarray, lengths: np.ndarray) -> list[tuple[int, int]]:
    """(clipped matches, hypothesis n-grams) for n = 1..4, summed over the
    pairs of one slice; the first half of ``lengths`` are the hypotheses."""
    n_pairs = lengths.size // 2
    is_hyp = np.repeat(np.arange(lengths.size) < n_pairs, lengths)
    pair = np.repeat(np.arange(lengths.size) % n_pairs, lengths)
    # tokens from each position to the end of its sentence
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(flat.size)
    base = flat.size + 1  # exceeds every token id and every dense n-gram id
    counts = []
    grams = flat
    for n in range(1, 5):
        if n > 1:
            # the (n-1)-gram at each position extended by its next token, renumbered densely
            grams = np.unique(grams[:-1] * base + flat[n - 1:], return_inverse=True)[1]
        size = grams.size
        keys = pair[:size] * base + grams
        whole = room[:size] >= n
        hyp_keys, hyp_counts = np.unique(keys[whole & is_hyp[:size]], return_counts=True)
        ref_keys, ref_counts = np.unique(keys[whole & ~is_hyp[:size]], return_counts=True)
        _, in_hyp, in_ref = np.intersect1d(hyp_keys, ref_keys, assume_unique=True,
                                           return_indices=True)
        counts.append((int(np.minimum(hyp_counts[in_hyp], ref_counts[in_ref]).sum()),
                       int(hyp_counts.sum())))
    return counts


def _padded(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """[len(lengths), max length] matrix of the sequences, -1 past each end."""
    out = np.full((lengths.size, int(lengths.max(initial=0))), -1, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    out[np.repeat(np.arange(lengths.size), lengths),
        np.arange(flat.size) - np.repeat(starts, lengths)] = flat
    return out


def _edit_distance(flat: np.ndarray, lengths: np.ndarray) -> int:
    """Levenshtein distances summed over the pairs of one slice; the first
    half of ``lengths`` are the hypotheses."""
    n_pairs = lengths.size // 2
    split = int(lengths[:n_pairs].sum())
    hyp_lens, ref_lens = lengths[:n_pairs], lengths[n_pairs:]
    hyp, ref = _padded(flat[:split], hyp_lens), _padded(flat[split:], ref_lens)
    # row i of every pair's table at once: row[s, j] is the distance between
    # the first i tokens of hypothesis s and the first j of its reference
    j = np.arange(ref.shape[1] + 1)
    row = np.tile(j, (n_pairs, 1))
    dist = ref_lens.copy()  # an empty hypothesis
    for i in range(1, hyp.shape[1] + 1):
        step = np.empty_like(row)
        step[:, 0] = i
        # deletion, or substitution (free on a match)
        np.minimum(row[:, 1:] + 1, row[:, :-1] + (hyp[:, i - 1:i] != ref), out=step[:, 1:])
        # insertion: row[j] = min over k <= j of step[k] + (j - k)
        row = np.minimum.accumulate(step - j, axis=1) + j
        ends = hyp_lens == i
        dist[ends] = row[ends, ref_lens[ends]]
    return int(dist.sum())


def bleu4(hypotheses: list[list], references: list[list]) -> float:
    """Corpus BLEU with 4-gram clipped precisions and brevity penalty, in [0, 100].

    Inputs are token lists (strings or ids), one reference per hypothesis.
    The geometric mean is unsmoothed: any empty n-gram precision zeroes the
    whole score.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference counts differ")
    if not hypotheses:
        raise ValueError("empty corpus")
    if any(len(r) == 0 for r in references):
        raise ValueError("empty reference")
    matched, total = [0] * 4, [0] * 4
    for flat, lengths in _slices(hypotheses, references):
        for n, (m, t) in enumerate(_clipped_matches(flat, lengths)):
            matched[n] += m
            total[n] += t
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0 or any(m == 0 for m in matched):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / 4.0
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_precision)


def wer(hypotheses: list[list], references: list[list]) -> float:
    """Word error rate: total edit distance over total reference words, x100."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference counts differ")
    ref_words = sum(len(r) for r in references)
    if ref_words == 0:
        raise ValueError("empty references")
    edits = sum(_edit_distance(flat, lengths) for flat, lengths in _slices(hypotheses, references))
    return 100.0 * edits / ref_words


CSV_HEADER = "step,epoch,split,loss,lr,loss_scale,grad_norm,skipped,tokens_per_sec,metric_name,metric_value"


@dataclass
class MetricsRow:
    step: int
    epoch: int
    split: str
    loss: float | None
    lr: float | None
    loss_scale: float | None
    grad_norm: float | None
    skipped: bool
    tokens_per_sec: float | None
    metric_name: str = ""
    metric_value: float | None = None


class MetricsLog:
    """Append-only rows; steps never move backwards within a metric stream."""

    def __init__(self):
        self.rows: list[MetricsRow] = []
        self._last_step: dict[tuple[str, str], int] = {}

    def append(self, row: MetricsRow) -> None:
        key = (row.split, row.metric_name)
        last = self._last_step.get(key)
        if last is not None and row.step <= last:
            raise ValueError(
                f"step {row.step} not increasing for split {row.split!r}"
                f" metric {row.metric_name!r} (last {last})")
        if row.skipped and row.grad_norm is not None:
            raise ValueError("skipped rows carry no parameter-update metrics")
        self._last_step[key] = row.step
        self.rows.append(row)

    @staticmethod
    def _fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    def write_csv(self, path) -> None:
        """Write the rows under one header, after the rows of earlier steps
        that ``path`` already holds, so a resumed run keeps its history."""
        first = min((r.step for r in self.rows), default=math.inf)
        lines = [CSV_HEADER]
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                lines += [line for line in f.read().splitlines()[1:]
                          if int(line.split(",", 1)[0]) < first]
        for r in self.rows:
            lines.append(",".join([
                str(r.step), str(r.epoch), r.split, self._fmt(r.loss), self._fmt(r.lr),
                self._fmt(r.loss_scale), self._fmt(r.grad_norm),
                "1" if r.skipped else "0", self._fmt(r.tokens_per_sec),
                r.metric_name, self._fmt(r.metric_value),
            ]))
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
