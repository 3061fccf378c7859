"""The three benchmark workloads: set-up, timed closed loop, output checks.

Every workload is one caller in a closed loop: each call waits for the one
before it, and BLAS is pinned to one thread, so one CPU is busy at a time.
The program is driven only through its public functions, and every input is
made from the workload seed.

Why these three: they run the shared layers (CNN kernels, tape autodiff, GRU,
fusion blocks) in the three ways the paper uses an MRN, and each of the
open performance items moves some of them and must leave the others alone.

- ``train-pinned`` trains at the pinned setting. It runs conv forward and
  backward at batch 32 (conv1's input gradient is computed and discarded),
  the whole backward pass and RMSProp. Conv-backward and pooling changes
  show here.
- ``eval-protocols`` scores an untrained model under OE and MC, each with
  and without caption postprocessing. It is batch-1 and forward-only: tape
  and GRU overhead and the evaluation code, no backward, no RMSProp. A
  conv-backward change must leave it alone; a no-grad or batched eval path
  shows here.
- ``viz-saliency`` back-propagates to the pixels of successive val examples
  and writes the heatmaps. Conv runs the other way round from training:
  weights frozen, the input gradient needed, one CNN forward per block. A
  conv-backward change that helps training must not hurt this; a shared CNN
  forward across blocks shows here.
"""

import math
import os
import statistics
import time
from fractions import Fraction

import numpy as np

from mrn import data, evaluation, training, visualization, vqa
from mrn.encoders import QuestionBatch, cnn_forward, gru_forward_trimzero
from mrn.model import ModelDims, block_forward, joint_residual, \
    visual_embedding

# the ROADMAP's pinned setting: variant b, L=3, d_joint 64, batch 32,
# lr 3e-3, dropout 0.1, on the 900-example dataset
PIN_N = 900
PIN_VARIANT = "b"
PIN_BLOCKS = 3
PIN_DIM = 64
PIN_BATCH = 32
PIN_LR = 3e-3
PIN_DROPOUT = 0.1
INIT_RANGE = 0.08


class Checks:
    """Output checks: attempted and failed counts, first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def make_dataset(seed, workdir, n, split_ratios=(0.7, 0.2, 0.1)):
    """Generate, save and load back: the loaded copy is what gets used."""
    path = os.path.join(workdir, "dataset.mrnd")
    data.save(data.generate(seed, n, split_ratios), path)
    return data.load(path)


def make_checkpoint(seed, ds, workdir):
    """Pinned-shape model, initialized at the seed, saved; returns the path."""
    dims = ModelDims(d_joint=PIN_DIM, n_answers=len(ds.answer_vocab),
                     n_blocks=PIN_BLOCKS)
    model = vqa.VqaModel(vocab_size=len(ds.question_vocab),
                         variant=PIN_VARIANT, dims=dims)
    training.init_params(model.named_parameters(), INIT_RANGE, seed)
    path = os.path.join(workdir, "model.ckpt")
    vqa.save_checkpoint(model, path)
    return path


class TrainPinned:
    """Mini-batch RMSProp steps; one op is one training iteration."""

    name = "train-pinned"
    op_label = "train_step_ms"
    items_label = "train_samples_per_s"
    step_span = "autodiff.backward"
    tape_counter = "tape_nodes.backward"
    # the first ~20 steps of a fresh process run ~10% slow
    WARMUP_STEPS = 20

    def setup(self, seed, workdir):
        self.seed = seed
        ds = make_dataset(seed, workdir, PIN_N)
        self.train_set = ds.split("train")
        self.ckpt = make_checkpoint(seed, ds, workdir)
        model = vqa.load_checkpoint(self.ckpt)
        op_s, result = self._train(model, self.WARMUP_STEPS)
        # loss trace for the bit-identical retraining check
        self.expected_losses = np.array(result.train_losses)
        self.step_s = statistics.median(op_s[self.WARMUP_STEPS // 2:])

    def _train(self, model, iterations, tracer=None):
        """Train from model; returns (seconds per step, TrainResult)."""
        config = training.TrainConfig(
            batch_size=PIN_BATCH, iterations=iterations,
            learning_rate=PIN_LR, dropout_rate=PIN_DROPOUT, seed=self.seed,
            eval_every=1)
        stamps = []
        no_report = evaluation.EvalReport(protocol="oe")

        # train() calls this after every iteration: the step clock
        def mark(_model, _val):
            stamps.append(time.perf_counter())
            if tracer is not None:
                tracer.end()
                tracer.begin("training.step")
            return no_report

        if tracer is not None:
            tracer.begin("training.step")
        try:
            result = training.train(model, self.train_set, config, val_set=[],
                                    evaluate_fn=mark, initialize=False)
        finally:
            if tracer is not None:
                tracer.discard_open()
        return list(np.diff(stamps)), result

    def run(self, seconds, checks, tracer=None):
        model = vqa.load_checkpoint(self.ckpt)
        iterations = max(self.WARMUP_STEPS + 1, round(seconds / self.step_s))
        op_s, result = self._train(model, iterations, tracer)
        losses = np.array(result.train_losses)
        for i, loss in enumerate(losses):
            checks.check(math.isfinite(loss), f"loss {loss} at iteration {i + 1}")
        head = losses[:len(self.expected_losses)]
        checks.check(head.tobytes() == self.expected_losses.tobytes(),
                     "loss trace differs from a second run at the same seed")
        return op_s, PIN_BATCH * len(op_s)

    def verify(self, checks):
        pass


class EvalProtocols:
    """evaluation.evaluate calls; one op is one evaluate over one split."""

    name = "eval-protocols"
    op_label = "eval_call_ms"
    items_label = "eval_examples_per_s"
    step_span = "vqa.forward"
    tape_counter = "tape_nodes.forward"
    # val and test of equal size, so one op's cost does not depend on which
    # split it scores, and enough calls per run for a p90 with 10 beyond it
    N = 200
    SPLIT_RATIOS = (0.5, 0.25, 0.25)
    SETTINGS = [(protocol, postprocess) for protocol in ("oe", "mc")
                for postprocess in (False, True)]

    def setup(self, seed, workdir):
        ds = make_dataset(seed, workdir, self.N, self.SPLIT_RATIOS)
        self.vocab = ds.answer_vocab
        self.model = vqa.load_checkpoint(make_checkpoint(seed, ds, workdir))
        self.calls = [(protocol, postprocess, ds.split(split))
                      for protocol, postprocess in self.SETTINGS
                      for split in ("val", "test")]
        # one pass over every call is the warm-up and the expected reports
        self.expected = [self._evaluate(call) for call in self.calls]

    def _evaluate(self, call):
        protocol, postprocess, examples = call
        return evaluation.evaluate(self.model, examples, protocol,
                                   postprocess=postprocess, vocab=self.vocab)

    def run(self, seconds, checks, tracer=None):
        op_s = []
        items = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            k = len(op_s) % len(self.calls)
            t0 = time.perf_counter()
            report = self._evaluate(self.calls[k])
            op_s.append(time.perf_counter() - t0)
            items += len(self.calls[k][2])
            want = self.expected[k]
            checks.check(report.overall == want.overall
                         and report.per_type == want.per_type,
                         f"call {k}: report differs from the warm-up's")
        return op_s, items

    def verify(self, checks):
        """Re-score every setting's predictions independently of evaluate."""
        for (protocol, postprocess, examples), want in zip(self.calls,
                                                           self.expected):
            thirds = 0
            for e in examples:
                pred = evaluation.predict(self.model, e, protocol, postprocess,
                                          self.vocab)
                if protocol == "mc":
                    checks.check(pred in e.candidates,
                                 f"MC prediction {pred} not among candidates")
                thirds += round(3 * evaluation.vqa_accuracy(self.vocab[pred],
                                                            e.humans))
            rescored = float(Fraction(thirds, 3 * len(examples)))
            checks.check(rescored == want.overall,
                         f"{protocol}/pp={postprocess}: overall "
                         f"{want.overall} != re-scored {rescored}")


class VizSaliency:
    """visualize_sequence on successive val examples; one op per example."""

    name = "viz-saliency"
    op_label = "viz_example_ms"
    items_label = "viz_examples_per_s"
    step_span = "visualization.visualize_sequence"
    tape_counter = "tape_nodes.backward"
    WARMUP_EXAMPLES = 10
    # criterion 5's oracle: central differences along random unit directions
    ORACLE_EPS = 1e-5
    ORACLE_DIRECTIONS = 3
    ORACLE_RTOL = 1e-3

    def setup(self, seed, workdir):
        self.seed = seed
        ds = make_dataset(seed, workdir, PIN_N)
        self.examples = ds.split("val")
        self.model = vqa.load_checkpoint(make_checkpoint(seed, ds, workdir))
        self.out_dir = os.path.join(workdir, "viz")
        for e in self.examples[:self.WARMUP_EXAMPLES]:
            visualization.visualize_sequence(e, self.model, self.out_dir)
        self.first = None

    def run(self, seconds, checks, tracer=None):
        op_s = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            e = self.examples[len(op_s) % len(self.examples)]
            t0 = time.perf_counter()
            heatmaps, _ = visualization.visualize_sequence(e, self.model,
                                                           self.out_dir)
            op_s.append(time.perf_counter() - t0)
            for hm in heatmaps:
                checks.check(bool(hm.mask.any()),
                             f"empty mask at block {hm.block_index}")
            if self.first is None:
                self.first = (e, heatmaps)
        return op_s, len(op_s)

    def verify(self, checks):
        """One block's pixel gradient against a directional derivative."""
        e, heatmaps = self.first
        model = self.model
        index = 1 + self.seed % len(model.mrn.blocks)
        grad = heatmaps[index - 1].raw
        batch = QuestionBatch(np.asarray([e.question]),
                              np.asarray([len(e.question)]))
        h = gru_forward_trimzero(batch, model.gru)
        v0 = cnn_forward(e.image[None], model.cnn, freeze=True)
        vshort = None
        for blk in model.mrn.blocks[:index - 1]:
            h, vshort = block_forward(h, v0, blk, vshort)
        block = model.mrn.blocks[index - 1]
        f0 = joint_residual(h, v0, block).data

        def loss_at(image):
            v = cnn_forward(image[None], model.cnn, freeze=True)
            return 0.5 * np.sum((visual_embedding(v, block).data - f0) ** 2)

        rng = np.random.default_rng((self.seed, 5))
        eps = self.ORACLE_EPS
        for _ in range(self.ORACLE_DIRECTIONS):
            d = rng.standard_normal(e.image.shape)
            d /= np.linalg.norm(d)
            numeric = (loss_at(e.image + eps * d)
                       - loss_at(e.image - eps * d)) / (2 * eps)
            analytic = float(np.sum(grad * d))
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic),
                                                1e-12)
            checks.check(rel < self.ORACLE_RTOL,
                         f"block {index} pixel gradient off the directional "
                         f"derivative by {rel:.2e}")


WORKLOADS = {w.name: w for w in (TrainPinned, EvalProtocols, VizSaliency)}
