/**
 * @file
 * ObserverList: the one fan-out every simulator tap uses.
 *
 * The memory controller, the secure executive, the LPC bus, the TPM and
 * the execution service each expose one of these for their observer
 * interface. Any number of observers (telemetry, the race detector, the
 * trace recorder, the audit adversaries) may watch the same component
 * at once; none of them can detach another by attaching.
 *
 * Semantics:
 *  - add() ignores nullptr and an observer that is already attached,
 *    so an observer never sees an event twice;
 *  - remove() is idempotent: removing an unknown observer is a no-op,
 *    so a detaching observer never has to ask whether it is attached;
 *  - notify() delivers to every observer in attach order, and returns
 *    at once when the list is empty.
 *
 * Threading rule: a list changes only between drains, on the draining
 * thread. Worker threads of a sharded drain may call notify() (the
 * service's onShardBegin/onShardEnd), which only reads the list. A
 * callback must not add or remove observers of the list delivering it.
 */

#ifndef MINTCB_COMMON_OBSERVERS_HH
#define MINTCB_COMMON_OBSERVERS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace mintcb
{

template <class T>
class ObserverList
{
  public:
    /** Attach @p obs (nullptr and duplicates are ignored). */
    void
    add(T *obs)
    {
        if (obs != nullptr && !contains(obs))
            list_.push_back(obs);
    }

    /** Detach @p obs (unknown observers are ignored). */
    void
    remove(const T *obs)
    {
        list_.erase(std::remove(list_.begin(), list_.end(), obs),
                    list_.end());
    }

    bool
    contains(const T *obs) const
    {
        return std::find(list_.begin(), list_.end(), obs) != list_.end();
    }

    std::size_t size() const { return list_.size(); }
    bool empty() const { return list_.empty(); }

    /** Call (obs->*fn)(args...) on every observer, in attach order. */
    template <class... Params, class... Args>
    void
    notify(void (T::*fn)(Params...), Args &&...args) const
    {
        for (T *obs : list_)
            (obs->*fn)(args...);
    }

  private:
    std::vector<T *> list_;
};

} // namespace mintcb

#endif // MINTCB_COMMON_OBSERVERS_HH
