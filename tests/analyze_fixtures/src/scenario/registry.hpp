// Fixture (negative control): scenario/registry.* declares and forwards
// registrations, which registry-discipline exempts.
struct Registry {
  bool add_topology(const char* key, int builder);
  bool add_algorithm(const char* key, int builder);
};

inline bool add_default_topology(Registry& reg) {
  return reg.add_topology("two_link", 0);
}
