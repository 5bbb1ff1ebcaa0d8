"""Gossip-based software-update dissemination simulator for mobile WSNs."""

__version__ = "0.1.0"
