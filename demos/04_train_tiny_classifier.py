"""End to end: synthesize a camouflage-style dataset, train, evaluate, save.

Uses the laptop-scale configuration (32x32 input, four stages, all four
branches).  Takes about 20 seconds on a 2-core CPU.  Everything it writes
goes to a temporary directory that is removed at the end.
"""

import os
import tempfile

import numpy as np

from mixssm import (
    Model,
    desk_config,
    evaluate,
    generate_synthetic,
    load_checkpoint,
    load_image_folder,
    save_checkpoint,
    train,
)

with tempfile.TemporaryDirectory(prefix="mixssm_demo_") as workdir:
    data_dir = os.path.join(workdir, "synth")

    # Four shape families over seeded noise textures, written as P6 PPM files.
    generate_synthetic(data_dir, classes=4, per_class=16, size=32, seed=0)
    dataset = load_image_folder(data_dir, (32, 32))
    print(f"dataset: {len(dataset)} images, classes {dataset.class_names}")

    config = desk_config(num_classes=4, seed=0)
    model = Model(config)
    print(f"model parameters: {model.parameter_count():,}")

    model, log = train(model, dataset, epochs=30, batch_size=32, lr=1e-3, seed=0)
    for record in log[::6] + [log[-1]]:
        print(f"epoch {record.epoch:3d}  loss {record.mean_loss:.4f}  acc {record.train_acc:.3f}")

    metrics = evaluate(model, dataset)
    print(f"train-set metrics: acc={metrics.accuracy:.3f} f1={metrics.f1:.3f}")
    print("confusion matrix:")
    print(metrics.confusion)

    ckpt = os.path.join(workdir, "tiny.ckpt")
    save_checkpoint(model, ckpt)
    reloaded = load_checkpoint(ckpt)
    same = all(
        np.array_equal(p.data, q.data)
        for (_, p), (_, q) in zip(model.named_parameters(), reloaded.named_parameters())
    )
    print(f"checkpoint round trip bit-exact: {same}")
