"""Record the per-step training losses that tests/test_golden_losses.py pins.

Run from the repository root, on the code whose losses become the record:

    PYTHONPATH=src python3 tests/record_golden_losses.py

It trains a tiny target with `train_lm`, runs every method/mode pair of the
default config's runs from it with `unlearn_run`, and writes each per-step
log to tests/golden_losses.json. A change that moves a formula moves these
numbers; a change that only reorders float operations moves them by
rounding, which the test's relative tolerance admits. With --check it
writes nothing and prints how far each record moved against the committed
file.
"""

import sys
from pathlib import Path

import golden
from qforget.checkpoint import ModelConfig
from qforget.corpus import build_tokenizer, generate_corpus
from qforget.lora import LoraConfig
from qforget.model import init_model
from qforget.pipeline import stream_texts
from qforget.training import train_lm
from qforget.unlearn import UnlearnConfig, unlearn_run

GOLDEN = Path(__file__).resolve().parent / "golden_losses.json"

# the default config's ten method/mode pairs
RUNS = [(method, "full_ft") for method in
        ("GA", "NPO", "GA_GDR", "GA_KLR", "NPO_GDR", "NPO_KLR")] + \
       [(method, "lora") for method in ("GA_GDR", "GA_KLR", "NPO_GDR", "NPO_KLR")]


def losses() -> dict:
    """{"train_lm": log, "<method>_<mode>": log, ...} of the tiny runs."""
    split = generate_corpus(5, 4, 8, 2)
    tok = build_tokenizer(split)
    cfg = ModelConfig(vocab_size=len(tok), d_model=16, n_layers=1, n_heads=2,
                      d_ff=32, context_len=24, seed=0)
    target, log = train_lm(init_model(cfg), stream_texts(split.forget + split.retain),
                           tok, lr=3e-3, epochs=2, batch_size=8, seed=0)
    out = {"train_lm": log}
    for method, mode in RUNS:
        plain = method in ("GA", "NPO")
        lora = LoraConfig(rank=2, alpha=4.0, seed=0) if mode == "lora" else None
        ucfg = UnlearnConfig(method=method, lr=3e-3 if lora else 1e-3, epochs=2,
                             lam=0.0 if plain else 1.0, mode=mode, lora=lora,
                             batch_size=3, seed=0)
        out[f"{method}_{mode}"] = unlearn_run(target, split, ucfg, tok).log
    return out


if __name__ == "__main__":
    sys.exit(golden.main(GOLDEN, losses))
