"""Model architectures: the rate network, the four experiment variants,
full-network forward/backward, and checkpoint serialization.

Variants:
  classic7  - 7 classic convs, channels 8,8,8,8,8,8,num_classes
  dilated7  - same channels, dilation rates 1,1,2,4,8,16,1
  ascnet7   - rate network + 7 adaptive convs, channels as classic7
  ascnet14  - rate network + 14 adaptive convs, first 13 at 32 channels

Every non-final conv is followed by ReLU; the final conv emits raw logits.
Adaptive variants compute one rate field per image from the raw input and
share it across all adaptive layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import convops, tensor
from .convops import ADAPTIVE, CLASSIC, DILATED, ConvLayer

CLASSIC7 = "classic7"
DILATED7 = "dilated7"
ASCNET7 = "ascnet7"
ASCNET14 = "ascnet14"

VARIANTS = (CLASSIC7, DILATED7, ASCNET7, ASCNET14)
VARIANT_IDS = {v: i for i, v in enumerate(VARIANTS)}

DILATED_RATES = (1, 1, 2, 4, 8, 16, 1)
RATE_NET_CHANNELS = (8, 4, 1)


@dataclass
class ModelSpec:
    variant: str
    num_classes: int = 2
    height: int = 64
    width: int = 64
    in_channels: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")

    def channel_plan(self):
        if self.variant == ASCNET14:
            return [32] * 13 + [self.num_classes]
        return [8] * 6 + [self.num_classes]


@dataclass
class RateNetwork:
    """3-layer classic-conv subnetwork mapping the raw image to the rate
    field. All three convs are followed by ReLU, so rates are >= 0."""

    layers: list

    def __post_init__(self):
        if len(self.layers) != 3:
            raise ValueError("rate network must have exactly 3 layers")
        out_ch = tuple(l.out_channels for l in self.layers)
        if out_ch != RATE_NET_CHANNELS:
            raise ValueError(
                f"rate network channels must be {RATE_NET_CHANNELS}, got {out_ch}"
            )


@dataclass
class Model:
    spec: ModelSpec
    layers: list
    ratenet: RateNetwork | None = None

    @property
    def is_adaptive(self):
        return self.ratenet is not None


def _build_ratenet(rng, in_channels, dtype):
    layers = []
    prev = in_channels
    for i, ch in enumerate(RATE_NET_CHANNELS):
        if i == len(RATE_NET_CHANNELS) - 1:
            # Zero weights + bias 1.0 so a fresh network emits rates == 1
            # everywhere and the model starts out as a classic CNN.
            w = np.zeros((ch, prev, 3, 3), dtype=dtype)
            b = np.ones(ch, dtype=dtype)
        else:
            w = tensor.he_init(rng, (ch, prev, 3, 3), dtype)
            b = np.zeros(ch, dtype=dtype)
        layers.append(ConvLayer(w, b, CLASSIC))
        prev = ch
    return RateNetwork(layers)


def build_model(spec: ModelSpec, rng, dtype=np.float32) -> Model:
    """Instantiate a variant with He-initialized conv weights."""
    if isinstance(rng, (int, np.integer)):
        rng = tensor.make_rng(int(rng))
    ratenet = None
    if spec.variant in (ASCNET7, ASCNET14):
        ratenet = _build_ratenet(rng, spec.in_channels, dtype)
        kind = ADAPTIVE
    elif spec.variant == DILATED7:
        kind = DILATED
    else:
        kind = CLASSIC

    layers = []
    prev = spec.in_channels
    for i, ch in enumerate(spec.channel_plan()):
        w = tensor.he_init(rng, (ch, prev, 3, 3), dtype)
        b = np.zeros(ch, dtype=dtype)
        rate = DILATED_RATES[i] if kind == DILATED else 1
        layers.append(ConvLayer(w, b, kind, rate))
        prev = ch
    return Model(spec, layers, ratenet)


def build_reduced_asc_model(num_asc_layers, num_classes=2, height=8, width=8,
                            in_channels=1, hidden_channels=4, seed=0,
                            dtype=np.float64) -> Model:
    """Shallow adaptive model for gradient checking; not a ModelSpec variant."""
    rng = tensor.make_rng(seed)
    spec = ModelSpec(ASCNET7, num_classes, height, width, in_channels)
    ratenet = _build_ratenet(rng, in_channels, dtype)
    layers = []
    prev = in_channels
    chans = [hidden_channels] * (num_asc_layers - 1) + [num_classes]
    for ch in chans:
        w = tensor.he_init(rng, (ch, prev, 3, 3), dtype)
        layers.append(ConvLayer(w, np.zeros(ch, dtype=dtype), ADAPTIVE))
        prev = ch
    return Model(spec, layers, ratenet)


def rate_network_forward(image, net: RateNetwork, return_cache=False):
    """Raw image -> (1,1,H,W) non-negative rate field (conv+ReLU three times)."""
    x = image
    inputs, preacts = [], []
    for layer in net.layers:
        inputs.append(x)
        z = convops.conv_classic_forward(x, layer)
        preacts.append(z)
        x = tensor.relu(z)
    rates = x
    if return_cache:
        return rates, {"inputs": inputs, "preacts": preacts}
    return rates


def rate_network_backward(net, cache, grad_rates):
    """Backprop through the rate network; returns grads keyed like
    checkpoint names ("ratenet.layer{j}.weight" / ".bias")."""
    grads = {}
    g = grad_rates
    for j in range(2, -1, -1):
        g = tensor.relu_backward(cache["preacts"][j], g)
        gx, gw, gb = convops.conv_classic_backward(cache["inputs"][j],
                                                   net.layers[j], g)
        grads[f"ratenet.layer{j}.weight"] = gw
        grads[f"ratenet.layer{j}.bias"] = gb
        g = gx
    return grads


def model_forward(model: Model, image, return_cache=False):
    """Run the network. Returns (logits, rates) where rates is None for the
    classic/dilated variants. With return_cache=True also returns the
    activation cache required by `model_backward`."""
    if image.ndim != 4 or image.shape[0] != 1:
        raise ValueError(f"expected (1,C,H,W) image, got {image.shape}")
    h, w = image.shape[2:]

    rates = None
    plan = None
    ratenet_cache = None
    if model.is_adaptive:
        rates, ratenet_cache = rate_network_forward(image, model.ratenet,
                                                    return_cache=True)
        plan = convops.build_sampling_plan(rates, h, w)

    x = image
    inputs, preacts, asc_caches = [], [], []
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        z, conv_cache = convops.conv_forward(x, layer, plan, return_cache)
        if return_cache:
            inputs.append(x)
            preacts.append(z)
            asc_caches.append(conv_cache)
        x = z if i == last else tensor.relu(z)
    logits = x

    if return_cache:
        cache = {
            "image": image,
            "inputs": inputs,
            "preacts": preacts,
            "asc_caches": asc_caches,
            "rates": rates,
            "plan": plan,
            "ratenet": ratenet_cache,
        }
        return logits, rates, cache
    return logits, rates


def model_backward(model: Model, cache, grad_logits):
    """Gradients for every parameter given d(loss)/d(logits).

    Rate-field gradients from all adaptive layers accumulate into one field
    gradient which then backpropagates through the rate network. Keys match
    checkpoint parameter names.
    """
    if cache is None or "preacts" not in cache:
        raise ValueError("model_backward requires the cache from model_forward")
    grads = {}
    g = grad_logits
    grad_rates_total = None
    last = len(model.layers) - 1
    for i in range(last, -1, -1):
        layer = model.layers[i]
        if i != last:
            g = tensor.relu_backward(cache["preacts"][i], g)
        gx, gw, gb, gr = convops.conv_backward(
            cache["inputs"][i], layer, g, cache["asc_caches"][i])
        if gr is not None:
            grad_rates_total = gr if grad_rates_total is None else grad_rates_total + gr
        grads[f"layer{i}.weight"] = gw
        grads[f"layer{i}.bias"] = gb
        g = gx

    if model.is_adaptive:
        grads.update(rate_network_backward(model.ratenet, cache["ratenet"],
                                           grad_rates_total))
    return grads


def param_dict(model: Model) -> dict:
    """Named views of every trainable array (mutating them updates the model)."""
    params = {}
    for i, layer in enumerate(model.layers):
        params[f"layer{i}.weight"] = layer.weights
        params[f"layer{i}.bias"] = layer.bias
    if model.is_adaptive:
        for j, layer in enumerate(model.ratenet.layers):
            params[f"ratenet.layer{j}.weight"] = layer.weights
            params[f"ratenet.layer{j}.bias"] = layer.bias
    return params


def save_checkpoint(model: Model, path) -> None:
    spec = model.spec
    tensors = {
        "spec": np.array(
            [VARIANT_IDS[spec.variant], spec.num_classes, spec.height,
             spec.width], dtype=np.float32,
        )
    }
    tensors.update(param_dict(model))
    tensor.save_tensors(path, tensors)


def load_checkpoint(path) -> Model:
    tensors = tensor.load_tensors(path)
    if "spec" not in tensors:
        raise ValueError(f"{path}: checkpoint missing 'spec' tensor")
    spec_values = tensors["spec"]
    integral = np.isfinite(spec_values) & (spec_values == np.floor(spec_values))
    if spec_values.shape != (4,) or not np.all(integral):
        raise ValueError(f"{path}: malformed 'spec' tensor {spec_values!r}")
    vid, num_classes, h, w = (int(v) for v in spec_values)
    if vid not in range(len(VARIANTS)):
        raise ValueError(
            f"{path}: unknown variant id {vid} in 'spec' (expected 0-"
            f"{len(VARIANTS) - 1})"
        )
    variant = VARIANTS[vid]
    first = tensors.get("layer0.weight")
    if first is None or first.ndim != 4:
        raise ValueError(f"{path}: checkpoint missing a 4-D 'layer0.weight'")
    in_channels = first.shape[1]
    try:
        spec = ModelSpec(variant, num_classes, h, w, in_channels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    model = build_model(spec, rng=0, dtype=first.dtype)
    for name, arr in param_dict(model).items():
        if name not in tensors:
            raise ValueError(f"{path}: checkpoint missing parameter {name}")
        if tensors[name].shape != arr.shape:
            raise ValueError(
                f"{path}: parameter {name} has shape {tensors[name].shape}, "
                f"expected {arr.shape}"
            )
        arr[...] = tensors[name]
    return model
