// Fixture: the one file allowed to register; its keys must be lowercase
// and unique per kind -> registry-discipline twice (uppercase key,
// duplicate key). The calls themselves are not findings here.
struct Registry {
  void add_topology(const char* key, int builder);
  void add_algorithm(const char* key, int builder);
};

void register_all(Registry& reg) {
  reg.add_topology("Fat_Tree", 0);
  reg.add_algorithm("lia", 1);
  reg.add_algorithm("olia", 2);
  reg.add_algorithm("lia", 3);
}
