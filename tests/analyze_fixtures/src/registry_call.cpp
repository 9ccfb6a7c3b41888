// Fixture: a registration outside scenario/builders.cpp ->
// registry-discipline.
struct Registry {
  void add_traffic(const char* key, int builder);
};

void register_extra(Registry& reg) { reg.add_traffic("rogue", 0); }
