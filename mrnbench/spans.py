"""Spans and counters recorded around the public functions of every mrn layer.

The program carries no instrumentation of its own, so the traced run wraps
module attributes from outside, for the duration of a ``with instrument(tr)``
block, and puts the originals back afterwards. A wrapper goes on the name a
caller actually looks up: ``vqa`` imports ``gru_forward_trimzero`` and
``mrn_forward`` by name and ``visualization`` imports ``cnn_forward`` and
``block_forward`` by name, so those bindings are wrapped where they live.
``kernels.conv2d_backward`` is looked up through the module at backward time,
so conv backward gets a span of its own; every other backward closure is only
visible inside ``autodiff.backward``.

Each span records its name, start, end and parent; spans stay in memory until
the run ends. Self time is a span's duration minus the time its direct
children cover (single-threaded, so children never overlap).
"""

import contextlib
import time
from collections import defaultdict

from mrn import autodiff, data, encoders, evaluation, kernels, model, \
    training, visualization, vqa
from mrn.autodiff import Tensor
from mrn.encoders import CnnConfig, StepCounter

# conv1 reads the image; conv2 reads conv1's channels
IMAGE_CHANNELS = CnnConfig().in_channels


class Tracer:
    """In-memory span list plus named counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counts = defaultdict(int)

    def begin(self, name):
        self._stack.append(len(self.names))
        self.parents.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.names.append(name)
        self.ends.append(None)
        self.starts.append(time.perf_counter())

    def end(self):
        self.ends[self._stack.pop()] = time.perf_counter()

    def discard_open(self):
        """Close and drop the span on top of the stack (a partial step)."""
        idx = self._stack.pop()
        self.ends[idx] = self.starts[idx]
        self.names[idx] = None

    def wrap(self, name, fn):
        """fn wrapped in a span; name may be a callable of fn's arguments."""
        def traced(*args, **kwargs):
            self.begin(name(*args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def durations(self):
        """name -> list of (inclusive seconds, self seconds)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.ends[i] is not None:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(list)
        for i, name in enumerate(self.names):
            if name is None or self.ends[i] is None:
                continue
            d = self.ends[i] - self.starts[i]
            out[name].append((d, d - child[i]))
        return out


def conv_layer(xp):
    return "conv1" if xp.shape[1] == IMAGE_CHANNELS else "conv2"


def graph_nodes(root):
    """Tensors a backward from root visits: root plus requires-grad ancestors."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def conv_flops_bytes(xp, w):
    """Multiply-adds x2 and minimal float64 traffic of one valid conv."""
    bsz, cin, hp, wp = xp.shape
    cout, _, kh, kw = w.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    flops = 2 * bsz * cout * cin * kh * kw * ho * wo
    nbytes = 8 * (xp.size + w.size + bsz * cout * ho * wo)
    return flops, nbytes


@contextlib.contextmanager
def instrument(tr):
    """Install span wrappers on every layer's public functions; undo on exit."""
    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name):
        patch(owner, attr, tr.wrap(name, owner.__dict__[attr]))

    def conv_span(kind):
        def name(xp, *rest):
            return f"kernels.conv2d_{kind}.{conv_layer(xp)}"
        return name

    fwd = tr.wrap(conv_span("forward"), kernels.conv2d_forward)

    def conv_forward(xp, w):
        layer = conv_layer(xp)
        flops, nbytes = conv_flops_bytes(xp, w)
        tr.counts[f"conv_calls.{layer}"] += 1
        tr.counts[f"conv_flops.{layer}"] += flops
        tr.counts[f"conv_bytes.{layer}"] += nbytes
        return fwd(xp, w)

    patch(kernels, "conv2d_forward", conv_forward)
    span(kernels, "conv2d_backward", conv_span("backward"))
    span(autodiff, "conv2d", "autodiff.conv2d")
    span(autodiff, "avgpool2d", "autodiff.avgpool2d")
    span(autodiff, "softmax_cross_entropy", "autodiff.softmax_cross_entropy")

    backward = tr.wrap("autodiff.backward", Tensor.backward)

    def counted_backward(self):
        tr.counts["tape_nodes.backward"] += graph_nodes(self)
        return backward(self)

    patch(Tensor, "backward", counted_backward)

    def gru_span(owner, attr):
        traced = tr.wrap("encoders.gru_forward", owner.__dict__[attr])

        def counted(batch, enc, counter=None, input_dropout=None):
            mine = StepCounter()
            h = traced(batch, enc, counter=mine, input_dropout=input_dropout)
            if counter is not None:
                counter.row_steps += mine.row_steps
            tr.counts["gru_row_steps"] += mine.row_steps
            tr.counts["gru_useful_row_steps"] += int(batch.lengths.sum())
            tr.counts["gru_calls"] += 1
            return h
        patch(owner, attr, counted)

    for owner in (vqa, encoders):
        gru_span(owner, "gru_forward_trimzero")
        gru_span(owner, "gru_forward")
    span(encoders, "cnn_forward", "encoders.cnn_forward")
    span(visualization, "cnn_forward", "encoders.cnn_forward")
    span(vqa, "mrn_forward", "model.mrn_forward")
    span(model, "block_forward", "model.block_forward")
    span(visualization, "block_forward", "model.block_forward")
    span(training, "rmsprop_step", "training.rmsprop_step")
    span(evaluation, "evaluate", "evaluation.evaluate")
    span(evaluation, "caption_postprocess", "evaluation.caption_postprocess")
    span(visualization, "visualize_sequence", "visualization.visualize_sequence")
    span(visualization, "attention_gradient_for",
         "visualization.attention_gradient_for")
    span(visualization, "write_pgm", "visualization.write")
    span(visualization, "write_ppm", "visualization.write")

    forward = tr.wrap("vqa.forward", vqa.VqaModel.forward)

    def counted_forward(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        tr.counts["tape_nodes.forward"] += graph_nodes(out[1])
        return out

    patch(vqa.VqaModel, "forward", counted_forward)
    span(vqa, "save_checkpoint", "vqa.save_checkpoint")
    span(vqa, "load_checkpoint", "vqa.load_checkpoint")
    span(data, "generate", "data.generate")
    span(data, "load", "data.load")
    try:
        yield tr
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(setup, phase, step_span, tape_counter):
    """Per-layer metrics as name -> (value, unit).

    Times are means per call of the named span, inclusive unless the name
    says self; a layer the workload never calls reads 0. data.* and
    vqa.ckpt_* come from the set-up tracer, the rest from the traced phase.
    Per-step counts divide by the number of step_span spans: a train
    iteration's backward, an evaluated example's forward, a visualized
    example.
    """
    d, s, c = phase.durations(), setup.durations(), phase.counts

    def ms(name, table=d, self_time=False):
        return 1e3 * _mean([x[self_time] for x in table.get(name, [])]), "ms"

    def per(total, calls, unit):
        return (c[total] / c[calls] if c[calls] else 0.0), unit

    steps = len(d.get(step_span, []))
    m = {}
    for layer in ("conv1", "conv2"):
        m[f"kernels.conv2d_fwd_ms.{layer}"] = ms(f"kernels.conv2d_forward.{layer}")
        m[f"kernels.conv2d_bwd_ms.{layer}"] = ms(f"kernels.conv2d_backward.{layer}")
        # computed from shapes, per forward call
        m[f"kernels.conv2d_flops.{layer}"] = per(
            f"conv_flops.{layer}", f"conv_calls.{layer}", "flop")
        m[f"kernels.conv2d_bytes.{layer}"] = per(
            f"conv_bytes.{layer}", f"conv_calls.{layer}", "B")
    m.update({
        "autodiff.conv2d_ms": ms("autodiff.conv2d"),
        "autodiff.avgpool2d_ms": ms("autodiff.avgpool2d"),
        "autodiff.softmax_xent_ms": ms("autodiff.softmax_cross_entropy"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.backward_self_ms": ms("autodiff.backward", self_time=True),
        "autodiff.tape_nodes_per_step": (
            c[tape_counter] / steps if steps else 0.0, "count"),
        "encoders.gru_fwd_ms": ms("encoders.gru_forward"),
        "encoders.cnn_fwd_ms": ms("encoders.cnn_forward"),
        "encoders.gru_row_steps": per("gru_row_steps", "gru_calls", "count"),
        # base: row-steps computed; the numerator is the sum of true lengths
        "encoders.gru_useful_ratio": per("gru_useful_row_steps",
                                         "gru_row_steps", "ratio"),
        "model.mrn_fwd_ms": ms("model.mrn_forward"),
        "model.block_fwd_ms": ms("model.block_forward"),
        "training.rmsprop_ms": ms("training.rmsprop_step"),
        "training.step_self_ms": ms("training.step", self_time=True),
        "evaluation.evaluate_self_ms": ms("evaluation.evaluate",
                                          self_time=True),
        "evaluation.postprocess_ms": ms("evaluation.caption_postprocess"),
        "visualization.grad_ms": ms("visualization.attention_gradient_for"),
        "visualization.write_ms": ms("visualization.write"),
        "vqa.forward_ms": ms("vqa.forward"),
        "vqa.ckpt_save_ms": ms("vqa.save_checkpoint", s),
        "vqa.ckpt_load_ms": ms("vqa.load_checkpoint", s),
        "data.generate_s": (ms("data.generate", s)[0] / 1e3, "s"),
        "data.load_s": (ms("data.load", s)[0] / 1e3, "s"),
    })
    return m
