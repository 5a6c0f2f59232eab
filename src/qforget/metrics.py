"""Evaluation metrics for any (possibly quantized) checkpoint.

Four headline numbers per model, following the usual unlearning-benchmark
protocol: verbatim memorization (vermem) scores greedy continuations of
forget-set sentences, knowledge memorization (knowmem) scores answers to
forget-set questions, utility preservation is knowmem on the retain set, and
privacy leakage compares a min-k% membership-inference AUC against that of
the retrained-from-scratch baseline, which a caller scores once
(membership_aucs) and passes to every cell. ROUGE-derived scores are
reported x100.

Protocol constants live in MetricProtocol so a report records exactly how it
was produced; everything here is a deterministic function of (checkpoint,
records, protocol).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .corpus import Tokenizer
from .errors import ConfigError, ContractError
from .model import greedy_decode_batch, token_log_probs_batch


@dataclass(frozen=True)
class MetricProtocol:
    k_percent: float = 20.0          # min-k% fraction
    prefix_len: int | None = None    # None: per-sentence ceil(len/2)

    def __post_init__(self):
        if not 0.0 < self.k_percent <= 100.0:
            raise ConfigError(f"k_percent must be in (0, 100], got {self.k_percent}")

    def to_dict(self) -> dict:
        return {"k_percent": self.k_percent, "prefix_len": self.prefix_len}


def lcs_length(a, b) -> int:
    """Longest common subsequence length via the classic DP table."""
    m, n = len(a), len(b)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        cur = [0] * (n + 1)
        ai = a[i - 1]
        for j in range(1, n + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[n]


def rouge_l_f1(candidate, reference) -> float:
    """LCS-based F1 in [0, 1]; empty candidate scores 0."""
    if not reference:
        raise ContractError("rouge: reference must be nonempty")
    if not candidate:
        return 0.0
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return 2.0 * p * r / (p + r)


def _prefix_length(n_tokens: int, protocol: MetricProtocol) -> int:
    if protocol.prefix_len is not None:
        return protocol.prefix_len
    return (n_tokens + 1) // 2  # ceil(n/2)


def vermem(ck: Checkpoint, records, tok: Tokenizer,
           protocol: MetricProtocol = MetricProtocol()) -> float:
    """Mean ROUGE-L F1 (x100) of greedy continuations against true suffixes.

    Each sentence is split at its prefix length; the model is prompted with
    bos + prefix and generates exactly the suffix length. Sentences not
    longer than the prefix are skipped with a warning.
    """
    prompts, suffixes = [], []
    skipped = 0
    for rec in records:
        ids = tok.encode(rec.sentence)
        l = _prefix_length(len(ids), protocol)
        if len(ids) <= l:
            skipped += 1
            continue
        prompts.append([tok.bos_id] + ids[:l])
        suffixes.append(ids[l:])
    if skipped:
        warnings.warn(f"vermem: skipped {skipped} sentence(s) shorter than the prefix")
    if not prompts:
        raise ContractError("vermem: no sentence was long enough to score")
    return _continuation_rouge(ck, prompts, suffixes)


def knowmem(ck: Checkpoint, records, tok: Tokenizer) -> float:
    """Mean ROUGE-L F1 (x100) of greedy answers against ground truth."""
    if not records:
        raise ContractError("knowmem: empty record list")
    prompts = [[tok.bos_id] + tok.encode(rec.question) for rec in records]
    return _continuation_rouge(ck, prompts, [tok.encode(rec.answer) for rec in records])


def _continuation_rouge(ck: Checkpoint, prompts: list, references: list) -> float:
    """Mean ROUGE-L F1 (x100) of each prompt's greedy continuation, as long
    as its reference, against that reference."""
    outs = greedy_decode_batch(ck, prompts, [len(r) for r in references])
    return 100.0 * float(np.mean([rouge_l_f1(out[len(p):], r)
                                  for p, out, r in zip(prompts, outs, references)]))


def utilitypres(ck: Checkpoint, retain_records, tok: Tokenizer) -> float:
    """knowmem on the retain set: the utility axis of the trade-off."""
    return knowmem(ck, retain_records, tok)


def min_k_scores(ck: Checkpoint, sequences, k_percent: float) -> list:
    """Mean of the lowest ceil(k% * n) per-token log-probs of every sequence
    (member-likeness), in input order, from batched forwards."""
    if not 0.0 < k_percent <= 100.0:
        raise ContractError("k_percent must be in (0, 100]")
    scores = []
    for lp in token_log_probs_batch(ck, sequences):
        lp = np.sort(lp)
        m = int(np.ceil(k_percent / 100.0 * lp.size))
        scores.append(float(lp[:m].mean()))
    return scores


def auc_roc(member_scores, nonmember_scores) -> float:
    """Mann-Whitney AUC: P(member > nonmember) with ties counting 1/2."""
    m = np.asarray(member_scores, dtype=np.float64)
    n = np.asarray(nonmember_scores, dtype=np.float64)
    if m.size == 0 or n.size == 0:
        raise ContractError("auc: both score lists must be nonempty")
    diff = m[:, None] - n[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return float(wins / (m.size * n.size))


def _membership_scores(ck: Checkpoint, records, tok: Tokenizer, k_percent: float) -> list:
    return min_k_scores(ck, [tok.frame(rec.sentence) for rec in records], k_percent)


def membership_aucs(ck: Checkpoint, split, tok: Tokenizer, k_percent: float = 20.0) -> dict:
    """Min-k% membership-inference AUC of one model, keyed by the privleak
    field it feeds: forget records are the members, retain records
    ("privleak") or holdout records ("privleak_holdout") the nonmembers.
    Each record list is scored once.
    """
    members = _membership_scores(ck, split.forget, tok, k_percent)
    nonmembers = {"privleak": split.retain, "privleak_holdout": split.holdout}
    return {key: auc_roc(members, _membership_scores(ck, records, tok, k_percent))
            for key, records in nonmembers.items()}


def privleak(auc_unlearn: float, auc_retrain: float) -> float | None:
    """100 * (AUC_unlearn - AUC_retrain) / AUC_retrain.

    The retrain model sets the baseline. Negative values mean the attack
    separates the sets less well than on the baseline. A fully separable
    baseline (AUC_retrain 0) leaves the ratio undefined: None.
    """
    if auc_retrain == 0.0:
        return None
    return 100.0 * (auc_unlearn - auc_retrain) / auc_retrain


def evaluate_checkpoint(ck: Checkpoint, split, tok: Tokenizer, baseline: dict | None,
                        protocol: MetricProtocol = MetricProtocol()) -> dict:
    """All four metrics for one checkpoint (plus the holdout privleak variant).

    baseline: the retrain model's membership_aucs. Without one the privleak
    fields are None.
    """
    cell = {
        "vermem": vermem(ck, split.forget, tok, protocol),
        "knowmem": knowmem(ck, split.forget, tok),
        "utilitypres": utilitypres(ck, split.retain, tok),
        "privleak": None,
        "privleak_holdout": None,
    }
    if baseline is not None:
        aucs = membership_aucs(ck, split, tok, protocol.k_percent)
        for key, auc_retrain in baseline.items():
            cell[key] = privleak(aucs[key], auc_retrain)
    return cell
