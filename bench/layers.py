"""Per-layer tracing of the qforget package, installed from outside it.

Every public function of each layer module is wrapped in a span named
`<layer>.<function>`, in each module that holds it under some name, plus the
methods listed in METHODS. Hooks at a few call boundaries add exact counts:
graph nodes and matmul FLOPs per optimizer step (walked through
`Var.parents` before each backward), decoded tokens, checkpoint and run
directory bytes, and the distinct-input ratios of reference forwards and
min-k% scoring. `LayerTrace.metrics` turns one traced round into the
per-layer metrics that BENCHMARK.json lists.
"""

import hashlib
import importlib
import inspect
import weakref
from collections import Counter
from pathlib import Path

from spans import Patch, Tracer, bindings, package_modules

LAYERS = ("autodiff", "model", "training", "corpus", "unlearn", "lora",
          "quantizer", "masking", "metrics", "checkpoint", "pipeline")
METHODS = {"autodiff": [("Var", "backward")], "training": [("Adam", "step")],
           "checkpoint": [("Checkpoint", "copy")]}

# Var.op names of the autodiff primitives; any other op counts as "other".
OPS = ("leaf", "matmul", "linear", "add", "mul", "scale", "slice_rows",
       "slice_cols", "concat_cols", "embed", "layer_norm", "gelu", "softmax",
       "log_softmax", "cross_entropy", "target_log_probs", "vsum", "kl",
       "log_sigmoid")
# Forward time reported per op: metric suffix -> autodiff function.
FWD_OPS = {"linear": "linear", "gelu": "gelu", "layer_norm": "layer_norm",
           "softmax": "softmax_rows", "slice_cols": "slice_cols",
           "concat_cols": "concat_cols", "cross_entropy": "cross_entropy"}


class ContentIds:
    """A digest of a checkpoint's parameters, computed once per object."""

    def __init__(self):
        self._by_id = {}

    def __call__(self, ck) -> bytes:
        hit = self._by_id.get(id(ck))
        if hit is not None and hit[0]() is ck:
            return hit[1]
        h = hashlib.blake2b(digest_size=16)
        for name, arr in ck.params.items():
            h.update(name.encode())
            h.update(arr.tobytes())
        digest = h.digest()
        self._by_id[id(ck)] = (weakref.ref(ck), digest)
        return digest


def walk_graph(root):
    """(node count by op, forward matmul FLOPs) of the graph under root."""
    ops = Counter()
    flops = 0
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        ops[node.op] += 1
        if node.op in ("linear", "matmul"):
            a, b = node.parents
            m, k = a.value.shape
            n = b.value.shape[0] if node.op == "linear" else b.value.shape[1]
            flops += 2 * m * k * n
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops, flops


def _tree_bytes(path) -> int:
    root = Path(path)
    if not root.exists():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _stem_bytes(stem) -> int:
    stem = Path(stem)
    return sum(stem.with_suffix(s).stat().st_size for s in (".json", ".bin"))


class LayerTrace:
    """A Tracer over the package's layers plus the boundary counters."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts = Counter()
        self.nodes = Counter()
        self._content = ContentIds()
        self._reference_keys = set()
        self._min_k_keys = set()
        self._dir_before = 0

    # -- hooks ---------------------------------------------------------------

    def _on_backward(self, args):
        ops, flops = walk_graph(args["self"])
        self.nodes.update(ops)
        self.counts["backward_graphs"] += 1
        self.counts["forward_flops"] += flops

    def _on_reference(self, args):
        self.counts["reference_forwards"] += 1
        self._reference_keys.add((self._content(args["ck"]), tuple(args["tokens"])))

    def _on_min_k(self, args):
        self.counts["min_k_calls"] += 1
        self._min_k_keys.add((self._content(args["ck"]), tuple(args["sequence"])))

    def _on_decode(self, args):
        self.counts["decode_tokens"] += int(args["n_new"])

    def _on_load(self, args, _result):
        self.counts["bytes_read"] += _stem_bytes(args["stem"])

    def _on_save(self, args, _result):
        self.counts["bytes_written"] += _stem_bytes(args["stem"])

    def _on_stage_start(self, args):
        self._dir_before = _tree_bytes(args["out"])

    def _on_stage_end(self, args, _result):
        self.counts["pipeline_bytes_written"] += _tree_bytes(args["out"]) - self._dir_before

    def _hooks(self) -> dict:
        """Hooks by span name, or by (calling module, bound name)."""
        stage = {"before": self._on_stage_start, "after": self._on_stage_end}
        return {
            "autodiff.Var.backward": {"before": self._on_backward},
            "model.greedy_decode": {"before": self._on_decode},
            "metrics.min_k_prob": {"before": self._on_min_k},
            "checkpoint.load_checkpoint": {"after": self._on_load},
            "checkpoint.save_checkpoint": {"after": self._on_save},
            "pipeline.stage_eval": stage,
            "pipeline.stage_masking": stage,
            "pipeline.stage_report": stage,
            # unlearn calls these two only on its frozen reference model
            ("qforget.unlearn", "token_log_probs"): {"before": self._on_reference},
            ("qforget.unlearn", "forward_logits"): {"before": self._on_reference},
        }

    # -- installation --------------------------------------------------------

    def install(self, patch: Patch) -> None:
        layer_modules = {layer: importlib.import_module(f"qforget.{layer}") for layer in LAYERS}
        modules = package_modules("qforget")
        hooks = self._hooks()
        for layer, module in layer_modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                span = f"{layer}.{name}"
                for owner, bound_name in bindings(fn, modules):
                    extra = hooks.get((owner.__name__, bound_name), hooks.get(span, {}))
                    patch.set(owner, bound_name,
                              self.tracer.wrap(fn, span, layer, **extra))
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                span = f"{layer}.{cls_name}.{method}"
                patch.set(cls, method, self.tracer.wrap(
                    vars(cls)[method], span, layer, **hooks.get(span, {})))

    # -- results -------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float,
                untraced_step_s: list, setup: "LayerTrace") -> dict:
        """Per-layer metrics of the traced round.

        untraced_step_s: optimizer-step latencies of the untraced rounds,
        which turn the traced FLOP count into an achieved rate. setup: the
        trace of the run's set-up, whose checkpoint writes are added to the
        round's.
        """
        inc, calls, c = self.tracer.inclusive, self.tracer.calls, self.counts
        graphs = c["backward_graphs"]
        per_step = (lambda x: x / graphs) if graphs else (lambda x: 0.0)
        step_gflop = per_step(3 * c["forward_flops"]) / 1e9  # forward + 2 backward matmuls
        m = {f"{layer}.self_s": self.tracer.self_s[layer] for layer in LAYERS}

        m["autodiff.backward_s"] = inc["autodiff.Var.backward"]
        m["autodiff.nodes_per_step"] = per_step(sum(self.nodes.values()))
        for op in OPS:
            m[f"autodiff.nodes.{op}"] = per_step(self.nodes[op])
        m["autodiff.nodes.other"] = per_step(
            sum(n for op, n in self.nodes.items() if op not in OPS))
        for op, fn in FWD_OPS.items():
            m[f"autodiff.fwd_s.{op}"] = inc[f"autodiff.{fn}"]

        for fn in ("forward_graph", "greedy_decode", "token_log_probs", "forward_logits"):
            m[f"model.{fn}_s"] = inc[f"model.{fn}"]
            m[f"model.{fn}_calls"] = calls[f"model.{fn}"]
        m["model.decode_tokens"] = c["decode_tokens"]
        m["model.step_gflop"] = step_gflop
        step_time = sum(untraced_step_s)
        m["model.achieved_gflops"] = (
            step_gflop * len(untraced_step_s) / step_time if graphs and step_time else 0.0)

        m["training.adam_step_s"] = inc["training.Adam.step"]
        m["training.steps"] = calls["training.Adam.step"]
        m["corpus.batches_s"] = sum(inc[f"corpus.{fn}"] for fn in
                                    ("text_batches", "batches", "conditional_batches"))

        m["unlearn.forget_loss_s"] = inc["unlearn.loss_ga"] + inc["unlearn.loss_npo"]
        m["unlearn.retain_loss_s"] = inc["unlearn.loss_gdr"] + inc["unlearn.loss_klr"]
        m["unlearn.reference_forwards"] = c["reference_forwards"]
        m["unlearn.reference_unique_frac"] = _ratio(len(self._reference_keys),
                                                    c["reference_forwards"])
        m["lora.attach_s"] = inc["lora.attach"]
        m["lora.merge_s"] = inc["lora.merge"]
        m["quantizer.quantize_model_s"] = inc["quantizer.quantize_model"]
        m["quantizer.quantize_model_calls"] = calls["quantizer.quantize_model"]
        m["masking.analyze_pair_s"] = inc["masking.analyze_pair"]

        for fn in ("vermem", "knowmem", "privleak"):
            m[f"metrics.{fn}_s"] = inc[f"metrics.{fn}"]
        m["metrics.rouge_s"] = inc["metrics.rouge_l_f1"]
        m["metrics.min_k_calls"] = c["min_k_calls"]
        m["metrics.min_k_unique_frac"] = _ratio(len(self._min_k_keys), c["min_k_calls"])

        m["checkpoint.load_s"] = inc["checkpoint.load_checkpoint"]
        m["checkpoint.save_s"] = (inc["checkpoint.save_checkpoint"] +
                                  setup.tracer.inclusive["checkpoint.save_checkpoint"])
        m["checkpoint.bytes_read"] = c["bytes_read"]
        m["checkpoint.bytes_written"] = c["bytes_written"] + setup.counts["bytes_written"]

        for stage in ("stage_eval", "stage_masking", "stage_report"):
            m[f"pipeline.{stage}_s"] = inc[f"pipeline.{stage}"]
        m["pipeline.bytes_written"] = c["pipeline_bytes_written"]

        m["trace.wall_s"] = traced_wall
        m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        m["trace.self_frac"] = sum(self.tracer.self_s.values()) / traced_wall
        return m


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
