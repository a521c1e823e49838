"""Evaluation metrics and the append-only training metrics log."""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Corpus BLEU with 4-gram clipped precisions and brevity penalty, in [0, 100].

    Inputs are pre-tokenized token lists, one reference per hypothesis.
    The geometric mean is unsmoothed: any empty n-gram precision zeroes the
    whole score.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference counts differ")
    if not hypotheses:
        raise ValueError("empty corpus")
    if any(len(r) == 0 for r in references):
        raise ValueError("empty reference")
    matched = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            total[n - 1] += max(len(hyp) - n + 1, 0)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    if hyp_len == 0 or any(m == 0 for m in matched):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / 4.0
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_precision)


def _levenshtein(a: list[str], b: list[str]) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            current[j] = min(previous[j] + 1, current[j - 1] + 1,
                             previous[j - 1] + (tok_a != tok_b))
        previous = current
    return previous[len(b)]


def wer(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Word error rate: total edit distance over total reference words, x100."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference counts differ")
    ref_words = sum(len(r) for r in references)
    if ref_words == 0:
        raise ValueError("empty references")
    edits = sum(_levenshtein(h, r) for h, r in zip(hypotheses, references))
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
