// splicer-lint fixture: writer-lanes — Engine hostile-world mutation state
// touched outside the engine core. The staged-event slots and depth
// counters make mutation replay idempotent; an outside writer could
// double-apply a close or strand a depth.
struct Meddler {
  void poke() {
    staged_mutations_[0].reset();
    mutators_.clear();
    node_down_depth_[7] = 0;
    channel_close_depth_.assign(4, 1);
  }
};
