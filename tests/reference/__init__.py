"""Slow, obviously correct models of rewritten subsystems."""
