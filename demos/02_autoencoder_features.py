"""Train the convolutional autoencoder briefly and inspect its codes.

The encoder compresses an H x W x 3 image through three 2x poolings down
to a 3-channel bottleneck; flattened, that is the image's feature vector
(48 values at 32x32, 2352 at 224x224). The decoder mirrors the encoder so
training is plain reconstruction.
"""

import numpy as np

from platerec import nn
from platerec.cae import (
    CaeConfig, build_cae, encode_image, reconstruct_image, train_cae,
)
from platerec.data import resize_image

rng = nn.make_rng(7, "demo-images")
images = []
for _ in range(24):
    grid = rng.random((4, 4, 3)).astype(np.float32)
    images.append(np.clip(0.15 + 0.7 * resize_image(grid, 32, 32), 0, 1))

config = CaeConfig(loss_kind="mse", max_epochs=30, patience=30,
                   learning_rate=0.005, batch_size=16, seed=7)
print(f"code length at 32x32: {config.code_length}")
print(f"code length at 224x224: "
      f"{CaeConfig(input_height=224, input_width=224).code_length}")

model, history = train_cae(build_cae(config), images[:16], images[16:])
print(f"epoch 1 loss {history.train_loss[0]:.5f} -> "
      f"epoch {len(history.train_loss)} loss {history.train_loss[-1]:.5f}")

code = encode_image(model, images[0])
recon = reconstruct_image(model, images[0])
err = float(np.abs(recon - images[0]).mean())
print(f"code shape {code.shape}, reconstruction mean abs error {err:.4f}")
