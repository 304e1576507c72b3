"""The four training objectives and their finite-difference validation.

Shows the closed-form values the losses must reproduce, the order
insensitivity that motivates the bag-of-tokens term, and a gradient check
of every loss against central differences on a toy model.
"""

import math

import numpy as np

from varnamer import gradcheck
from varnamer import losses as L

print("=== closed-form checks ===")
uniform = np.full((1, 4), 0.25)
print(f"  masked CE, uniform over 4 tokens: {L.cmlm_loss(uniform, [1]).item():.6f}"
      f"  (ln 4 = {math.log(4):.6f})")

q = np.full((1, 5), 0.2)
print(f"  length CE, uniform over 5 lengths: {L.lp_loss(q, [2]).item():.6f}"
      f"  (ln 5 = {math.log(5):.6f})")

gen = np.array([1.0, 0.0])
side = np.array([0.6, 0.8])
print(f"  contrastive at cosine equality: {L.cl_loss([gen], [side], [side], 0.05).item():.6f}"
      f"  (ln 2 = {math.log(2):.6f})")

print("\n=== order insensitivity ===")
rng = np.random.default_rng(0)
probs = rng.dirichlet(np.ones(8), size=2)
z = L.bot_distribution(probs)
print(f"  bot_loss [3, 5]: {L.bot_loss(z, [3, 5]).item():.10f}")
print(f"  bot_loss [5, 3]: {L.bot_loss(z, [5, 3]).item():.10f}  (bit-identical)")
a = L.cmlm_loss(probs, [3, 5]).item()
b = L.cmlm_loss(probs, [5, 3]).item()
print(f"  cmlm_loss changes under the same swap: {a:.4f} vs {b:.4f}")

print("\n=== gradient fidelity (toy model, 64-bit) ===")
params, example = gradcheck.toy_model(seed=0)
for name, fn in gradcheck.loss_suite(example).items():
    err = gradcheck.gradient_check(fn, params, coords_per_tensor=4, seed=1)
    print(f"  {name:>8}: max relative error {err:.2e}")
