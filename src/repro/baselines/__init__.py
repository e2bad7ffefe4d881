"""The baseline the paper compares against: classic traceroute."""

from .traceroute import Traceroute

__all__ = ["Traceroute"]
