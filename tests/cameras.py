"""A forward-looking pinhole camera for projection and rendering tests."""

import numpy as np

from lidarmoe.sensors import CameraModel


def forward_camera(offset=(0.0, 0.0, 0.2), fx=64.0, fy=64.0,
                   cx=48.0, cy=32.0, width=96, height=64) -> CameraModel:
    """A camera at ``offset`` from the LiDAR looking along +x.

    Maps LiDAR axes (x fwd, y left, z up) onto camera axes
    (z fwd, x right, y down). The defaults are the reference dataset's
    camera.
    """
    r = np.array([[0.0, -1.0, 0.0],
                  [0.0, 0.0, -1.0],
                  [1.0, 0.0, 0.0]])
    t = np.eye(4)
    t[:3, :3] = r
    t[:3, 3] = -r @ np.asarray(offset, dtype=np.float64)
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    return CameraModel(cam_intrinsics=k.tolist(), cam_extrinsics=t.tolist(),
                       cam_w=width, cam_h=height)
