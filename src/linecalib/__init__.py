"""LiDAR-camera extrinsic calibration from lane and pole line features."""
