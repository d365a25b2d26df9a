"""Desk-scale workbench for domination preorders between countable models."""
