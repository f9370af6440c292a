// writer-lanes-transitive fixture (owner half, linted as
// src/routing/engine.cpp): helpers inside the owning component may touch
// staged_mutations_; run_window() is a sanctioned entry API. Pinned by
// LintInterproc.WriterLanesTransitive*.
struct Engine {
  void drop_staged(int slot);
  void run_window(int slot);
  int staged_mutations_[8];
};

void Engine::drop_staged(int slot) { staged_mutations_[slot] = 0; }

void Engine::run_window(int slot) { staged_mutations_[slot] += 1; }
