"""Kalman filtering for systems with random transition and measurement matrices."""
