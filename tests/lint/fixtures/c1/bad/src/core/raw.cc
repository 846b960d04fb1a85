#include <mutex>

std::mutex raw_mu;

void Touch() { std::lock_guard<std::mutex> g(raw_mu); }
