"""The benchmark's workloads: set-up, one timed round, and output checks.

Inputs come only from the workload seed. It replaces the experiment seed of
workload.json, which feeds generate_corpus, model init, batch shuffles and
each unlearning run's seed (a run keeps its offset from the config seed).
Set-up builds the corpus, tokenizer and checkpoints with the program's own
train_lm, unlearn_run and save_checkpoint. A round is the timed unit of work
and returns its outputs; `judge` checks them and names the operations that
failed.
"""

import copy
import math
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from qforget import checkpoint, corpus, metrics, model, pipeline, training, unlearn
from spans import CallClock, Patch, StepClock


@dataclass
class Round:
    wall_s: float
    step_s: list   # latency of each step of the inner loop
    task_s: list   # duration of each top-level task
    output: object


@dataclass
class Verdict:
    failed: set        # names of failed operations
    fingerprint: dict  # "<op>/<field>" -> value, for cross-round and reference checks
    problems: list


def experiment_dict(spec: dict, seed: int) -> dict:
    """The experiment config of workload.json, moved to the workload seed."""
    raw = copy.deepcopy(spec["experiment"])
    base = raw["seed"]
    raw["seed"] = seed
    for run in raw["runs"]:
        run["seed"] = seed + run.get("seed", base) - base
        if "lora" in run:
            run["lora"]["seed"] = seed + run["lora"].get("seed", base) - base
    return raw


def _finite(*xs) -> bool:
    return all(x is not None and math.isfinite(x) for x in xs)


class Workload:
    """Shared set-up pieces. Subclasses define setup, ops, tokens, round, judge."""

    name = ""

    def __init__(self, spec: dict, seed: int):
        self.raw = experiment_dict(spec, seed)
        self.cfg = pipeline.ExperimentConfig.from_dict(self.raw)
        self.sizes = spec["bench"]

    def _corpus(self):
        c = self.cfg.corpus
        split = corpus.generate_corpus(self.cfg.seed, c["n_forget"], c["n_retain"],
                                       c["n_holdout"])
        return split, corpus.build_tokenizer(split)

    def _train(self, texts, tok, init_seed):
        """A short train_lm run from a fresh init (set-up only)."""
        mcfg = self.cfg.model_config(len(tok))
        mcfg.seed = init_seed
        ck, _ = training.train_lm(model.init_model(mcfg), texts, tok,
                                  lr=self.cfg.pretrain["lr"],
                                  epochs=self.sizes["setup_epochs"],
                                  batch_size=self.cfg.pretrain["batch_size"],
                                  seed=init_seed)
        return ck

    def _target(self, split, tok):
        """f_target: forget facts plus a slice of the retain facts."""
        k = self.sizes["setup_retain_records"]
        return self._train(pipeline.stream_texts(split.forget + split.retain[:k]),
                           tok, self.cfg.seed)


class Pretrain(Workload):
    """train_lm from init_model on the default pretrain stream."""

    name = "pretrain"

    def setup(self, workdir):
        split, tok = self._corpus()
        texts = pipeline.pretrain_texts(self.cfg, split)
        init = model.init_model(self.cfg.model_config(len(tok)))
        return SimpleNamespace(tok=tok, texts=texts, init=init)

    def _per_epoch(self, env) -> int:
        return math.ceil(len(env.texts) / self.cfg.pretrain["batch_size"])

    def ops(self, env) -> list:
        return [f"step{i}" for i in range(self.sizes["pretrain_epochs"] * self._per_epoch(env))]

    def tokens(self, env) -> int:
        return self.sizes["pretrain_epochs"] * sum(len(env.tok.frame(t)) for t in env.texts)

    def round(self, env, outdir) -> Round:
        clock = StepClock()
        with Patch() as patch:
            clock.install(patch, training.Adam)
            t0 = perf_counter()
            clock.mark()
            _, log = training.train_lm(env.init, env.texts, env.tok,
                                       lr=self.cfg.pretrain["lr"],
                                       epochs=self.sizes["pretrain_epochs"],
                                       batch_size=self.cfg.pretrain["batch_size"],
                                       seed=self.cfg.seed)
            wall = perf_counter() - t0
        n = self._per_epoch(env)
        lat = clock.latencies
        epochs = [sum(lat[i:i + n]) for i in range(0, len(lat), n)]
        return Round(wall, lat, epochs, log)

    def judge(self, env, log) -> Verdict:
        ops = self.ops(env)
        failed, problems = set(ops[len(log):]), []
        if len(log) != len(ops):
            problems.append(f"{len(log)} steps logged, {len(ops)} expected")
        for op, entry in zip(ops, log):
            if not _finite(entry["loss"], entry["grad_norm"]):
                failed.add(op)
                problems.append(f"{op}: non-finite loss or gradient norm")
        n = self._per_epoch(env)
        first = np.mean([e["loss"] for e in log[:n]])
        last = np.mean([e["loss"] for e in log[-n:]])
        if not last < first:
            failed.add(ops[-1])
            problems.append(f"last epoch mean loss {last} is not below the first's {first}")
        every = max(1, n // 4)
        picks = sorted(set(range(0, len(log), every)) | {len(log) - 1})
        fingerprint = {f"{ops[i]}/loss": log[i]["loss"] for i in picks if i >= 0}
        return Verdict(failed, fingerprint, problems)


class Unlearn(Workload):
    """unlearn_run for every configured run, epochs capped, from a set-up target."""

    name = "unlearn"

    def setup(self, workdir):
        split, tok = self._corpus()
        target = self._target(split, tok)
        checkpoint.save_checkpoint(target, workdir / "f_target")
        cap = self.sizes["unlearn_epochs"]
        runs = [self.cfg.unlearn_config(dict(r, epochs=min(r["epochs"], cap)))
                for r in self.cfg.runs]
        probes = [tok.frame(rec.sentence) for rec in split.forget[:2]]
        return SimpleNamespace(split=split, tok=tok, target=target, runs=runs, probes=probes)

    def ops(self, env) -> list:
        return [f"run:{pipeline.run_tag(u)}" for u in env.runs]

    def _steps_per_epoch(self, env, ucfg) -> int:
        return math.ceil(len(env.split.forget) / ucfg.batch_size)

    def tokens(self, env) -> int:
        """Tokens of the forget and retain batches; reference forwards excluded."""
        def frame_tokens(records, count):
            lengths = [len(corpus.conditional_frame(r, env.tok)[0]) for r in records]
            return count * float(np.mean(lengths))
        total = 0.0
        for u in env.runs:
            nb = self._steps_per_epoch(env, u)
            per_epoch = frame_tokens(env.split.forget, len(env.split.forget))
            if u.lam > 0.0:
                nr = len(env.split.retain)
                sizes = [min(u.batch_size, nr - i) for i in range(0, nr, u.batch_size)]
                drawn = sum(sizes[j % len(sizes)] for j in range(nb))
                per_epoch += frame_tokens(env.split.retain, drawn)
            total += u.epochs * per_epoch
        return int(round(total))

    def round(self, env, outdir) -> Round:
        clock = StepClock()
        results, tasks = [], []
        with Patch() as patch:
            clock.install(patch, training.Adam)
            t0 = perf_counter()
            for u in env.runs:
                start = perf_counter()
                clock.mark()
                res = unlearn.unlearn_run(env.target, env.split, u, env.tok)
                # stage_unlearn merges adapter runs before anything else reads them
                results.append((res, res.merged()))
                tasks.append(perf_counter() - start)
            wall = perf_counter() - t0
        return Round(wall, clock.latencies, tasks, results)

    def judge(self, env, results) -> Verdict:
        failed, problems, fingerprint = set(), [], {}

        def fail(op, why):
            failed.add(op)
            problems.append(f"{op}: {why}")

        for op, u, (res, merged) in zip(self.ops(env), env.runs, results):
            log = res.log
            if len(log) != u.epochs * self._steps_per_epoch(env, u):
                fail(op, f"{len(log)} steps logged")
            if not all(_finite(e["total"], e["loss_forget"], e["grad_norm"]) and
                       (u.lam == 0.0 or _finite(e["loss_retain"])) for e in log):
                fail(op, "non-finite loss or gradient norm")
            if u.mode == "lora":
                self._judge_lora(env, res, merged, op, fail)
            elif all(np.array_equal(res.checkpoint.params[k], v)
                     for k, v in env.target.params.items()):
                fail(op, "full_ft run left every weight unchanged")
            if log:
                fingerprint[f"{op}/first_total"] = log[0]["total"]
                fingerprint[f"{op}/final_total"] = log[-1]["total"]
        return Verdict(failed, fingerprint, problems)

    def _judge_lora(self, env, res, merged, op, fail):
        base, target = res.checkpoint.params, env.target.params
        if list(base) != list(target) or any(
                base[k].dtype != v.dtype or base[k].tobytes() != v.tobytes()
                for k, v in target.items()):
            fail(op, "base weights differ from the target after a lora run")
        if not any(np.any(ad.B != 0.0) for ad in res.adapters.values()):
            fail(op, "adapters did not move")
        for seq in env.probes:
            via_adapters = model.forward_logits(res.checkpoint, seq, res.adapters)
            via_merge = model.forward_logits(merged, seq)
            scale = max(1.0, float(np.max(np.abs(via_adapters))))
            if not np.max(np.abs(via_merge - via_adapters)) <= 1e-9 * scale:
                fail(op, "merged forward differs from the adapter forward")


class Eval(Workload):
    """The evaluation tail of `run` over set-up checkpoints."""

    name = "eval"

    def setup(self, workdir):
        split, tok = self._corpus()
        target = self._target(split, tok)
        k = self.sizes["setup_retain_records"]
        retrain = self._train(pipeline.stream_texts(split.retain[:k]), tok, self.cfg.seed + 1)
        ckdir = workdir / "checkpoints"
        checkpoint.save_checkpoint(target, ckdir / "f_target")
        checkpoint.save_checkpoint(retrain, ckdir / "retrain")
        runs = []
        for method, mode in self.sizes["eval_runs"]:
            run = next(r for r in self.raw["runs"]
                       if r["method"] == method and r.get("mode", "full_ft") == mode)
            run = dict(run, epochs=min(run["epochs"], self.sizes["setup_epochs"]))
            runs.append(run)
            ucfg = self.cfg.unlearn_config(run)
            res = unlearn.unlearn_run(target, split, ucfg, tok)
            final = res.merged() if res.adapters is not None else res.checkpoint
            checkpoint.save_checkpoint(final, ckdir / pipeline.run_tag(ucfg))
        cfg = pipeline.ExperimentConfig.from_dict(dict(self.raw, runs=runs))
        models = [("f_target", "f_target", "none")] + [
            (pipeline.run_tag(u), u.method, "lora" if u.mode == "lora" else "none")
            for u in map(cfg.unlearn_config, runs)]
        precisions = [p for p in pipeline.PRECISIONS
                      if p == "full" or p in pipeline.specs_by_precision(cfg)]
        return SimpleNamespace(split=split, tok=tok, cfg=cfg, ckdir=ckdir,
                               models=models, precisions=precisions)

    def ops(self, env) -> list:
        cells = [f"cell:{name}_{p}" for name, _, _ in env.models for p in env.precisions]
        return cells + [f"masking:{name}" for name, _, _ in env.models[1:]] + ["report"]

    def tokens(self, env) -> int:
        """Per cell: tokens decoded by vermem/knowmem/utilitypres plus tokens
        scored by both privleak variants on the evaluated and retrain models."""
        tok, split, proto = env.tok, env.split, env.cfg.protocol()
        decoded = 0
        for rec in split.forget:
            n = len(tok.encode(rec.sentence))
            prefix = proto.prefix_len if proto.prefix_len is not None else (n + 1) // 2
            decoded += max(0, n - prefix)
        decoded += sum(len(tok.encode(r.answer)) for r in split.forget + split.retain)
        framed = lambda records: sum(len(tok.frame(r.sentence)) for r in records)
        scored = 2 * (2 * framed(split.forget) + framed(split.retain) + framed(split.holdout))
        return (decoded + scored) * len(env.models) * len(env.precisions)

    def round(self, env, outdir) -> Round:
        cells, steps = CallClock(), CallClock()
        cfg, split, tok = env.cfg, env.split, env.tok
        with Patch() as patch:
            cells.install(patch, pipeline, ["evaluate_checkpoint"])
            steps.install(patch, metrics, ["vermem", "knowmem", "utilitypres", "privleak"])
            t0 = perf_counter()
            target = checkpoint.load_checkpoint(env.ckdir / "f_target")
            retrain = checkpoint.load_checkpoint(env.ckdir / "retrain")
            for name, method, adapter in env.models:
                if name == "f_target":
                    ck = target
                else:
                    ck = checkpoint.load_checkpoint(env.ckdir / name)
                    pipeline.stage_masking(cfg, outdir, target, name, ck)
                pipeline.stage_eval(cfg, outdir, split, tok, retrain, name, method, adapter, ck)
            report = pipeline.stage_report(cfg, outdir)
            wall = perf_counter() - t0
        return Round(wall, steps.durations, cells.durations, (report, outdir))

    def judge(self, env, output) -> Verdict:
        report, outdir = output
        failed, problems, fingerprint = set(), [], {}

        def fail(op, why):
            failed.add(op)
            problems.append(f"{op}: {why}")

        for cell in report["missing"]:
            fail(f"cell:{cell}", "missing from report.json")
            fail("report", f"lists {cell} as missing")
        names = {(method, adapter): name for name, method, adapter in env.models}
        for row in report["rows"]:
            op = f"cell:{names[(row['method'], row['adapter'])]}_{row['precision']}"
            for key in ("vermem", "knowmem", "utilitypres"):
                if not (_finite(row[key]) and 0.0 <= row[key] <= 100.0):
                    fail(op, f"{key}={row[key]} outside [0, 100]")
            for key in ("privleak", "privleak_holdout"):
                if row[key] is not None and not (_finite(row[key]) and row[key] >= -100.0):
                    fail(op, f"{key}={row[key]} below -100 or not finite")
            for key in ("vermem", "knowmem", "utilitypres", "privleak", "privleak_holdout"):
                fingerprint[f"{op}/{key}"] = row[key]
        for name, _, _ in env.models[1:]:
            op = f"masking:{name}"
            fractions = report["crossing_fractions"].get(name)
            if not fractions or not all((outdir / "masking" / f"{name}{s}").is_file()
                                        for s in (".json", ".csv")):
                fail(op, "masking report missing")
                continue
            for spec, frac in sorted(fractions.items()):
                if not (_finite(frac) and 0.0 <= frac <= 1.0):
                    fail(op, f"crossing fraction {frac} outside [0, 1]")
                fingerprint[f"{op}/{spec}"] = frac
        if not all((outdir / f).is_file() for f in ("report.json", "report.csv")):
            fail("report", "report files missing")
        return Verdict(failed, fingerprint, problems)


WORKLOADS = {w.name: w for w in (Pretrain, Unlearn, Eval)}
