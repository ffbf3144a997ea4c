"""Visualize the parallel multi-scale attention module on a synthetic image:
the two-channel pooling descriptor, both branches, and the fused map, saved
as PGM files you can open with any image viewer.

Run:  python demos/03_attention_maps.py [OUT_DIR]   (default OUT_DIR: demos/out/)
"""

import sys
from pathlib import Path

import numpy as np

from rrnet.attention import fuse_maps, left_branch, pma, pma_shapes, right_branch
from rrnet.dataio import synth_dataset, write_pgm, write_ppm
from rrnet.init import init_params
from rrnet.tensor import Tensor, channel_pool

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out"
out_dir.mkdir(parents=True, exist_ok=True)

sample = synth_dataset(1, seed=21, size=64)[0]
write_ppm(out_dir / "input.ppm", sample.image)
write_pgm(out_dir / "mask.pgm", sample.mask)

x = Tensor(sample.image)
params = init_params(pma_shapes(3), 3, np.float32)  # {"left.k3.w": Tensor, ...}

d = channel_pool(x)
print("descriptor shape:", d.shape, "(channel average and channel max)")
write_pgm(out_dir / "descriptor_avg.pgm", d.data[:, :, 0])
write_pgm(out_dir / "descriptor_max.pgm", d.data[:, :, 1])

a_left = left_branch(x, params)
a_right = right_branch(x, params)
a_fused = fuse_maps(a_left, a_right, params)
for name, m in (("att_left", a_left), ("att_right", a_right), ("att_fused", a_fused)):
    lo, hi = float(m.data.min()), float(m.data.max())
    print(f"{name}: range ({lo:.4f}, {hi:.4f}) - strictly inside (0, 1)")
    write_pgm(out_dir / f"{name}.pgm", m.data)

# single-branch variants used by the ablation study
for branch in ("left", "right"):
    m = pma(x, params, branch=branch)
    write_pgm(out_dir / f"att_only_{branch}.pgm", m.data)

print(f"wrote attention maps under {out_dir}")
