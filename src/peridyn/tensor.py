"""Fixed-size real tensors in three dimensions (orders 1 to 4).

Tensors are plain ``numpy`` arrays of shape (3,), (3, 3), (3, 3, 3) and
(3, 3, 3, 3); the aliases below name them in signatures.
"""

from __future__ import annotations

import numpy as np

Vec3 = np.ndarray
Mat3 = np.ndarray
Tensor3 = np.ndarray
Tensor4 = np.ndarray

IDENTITY = np.eye(3)

E3 = np.array([0.0, 0.0, 1.0])
