"""Desk-scale differential face-morph detection toolkit.

Submodules:
    gradcore  - reverse-mode autodiff over dense float32 or float64 tensors
    geometry  - landmarks, thin-plate-spline fitting/warping, mining
    imaging   - face images, morph generation, triplets, synthetic datasets
    embednet  - disentangled encoder, losses, two-stage training
    evalkit   - APCER/BPCER, DET curves, D-EER
"""

__version__ = "0.1.0"
