#include "perfbench/src/spans.h"

#include <algorithm>

namespace perfbench {

std::vector<RequestSpans>
requestSpans(const std::vector<cobra::TraceEvent> &events)
{
    std::vector<const cobra::TraceEvent *> ev;
    for (const cobra::TraceEvent &e : events)
        if (e.ph == 'X' && e.tid == 0)
            ev.push_back(&e);
    // Parents before their children: earlier start first, and of two
    // spans starting together the longer one.
    std::stable_sort(ev.begin(), ev.end(), [](auto *a, auto *b) {
        return a->ts != b->ts ? a->ts < b->ts : a->dur > b->dur;
    });

    std::vector<RequestSpans> out;
    std::vector<size_t> stack;                     // open spans, by index
    std::vector<long> owner(ev.size(), -1);        // index into out
    std::vector<double> childMs(ev.size(), 0.0);
    auto encloses = [&](size_t p, size_t c) {
        return ev[c]->ts >= ev[p]->ts &&
               ev[c]->ts + ev[c]->dur <= ev[p]->ts + ev[p]->dur;
    };
    for (size_t i = 0; i < ev.size(); ++i) {
        while (!stack.empty() && !encloses(stack.back(), i))
            stack.pop_back();
        if (!stack.empty()) {
            owner[i] = owner[stack.back()];
            childMs[stack.back()] += static_cast<double>(ev[i]->dur) / 1e3;
        } else if (ev[i]->cat == kBenchCat) {
            RequestSpans r;
            r.root = ev[i]->name;
            for (const auto &[k, v] : ev[i]->args)
                if (k == "request")
                    r.request = v;
            owner[i] = static_cast<long>(out.size());
            out.push_back(std::move(r));
        }
        stack.push_back(i);
    }
    for (size_t i = 0; i < ev.size(); ++i) {
        if (owner[i] < 0)
            continue; // outside every request (e.g. a shutdown checkpoint)
        const std::string name =
            ev[i]->cat == "phase" ? "pb." + ev[i]->name : ev[i]->name;
        const double ms = static_cast<double>(ev[i]->dur) / 1e3;
        RequestSpans &r = out[static_cast<size_t>(owner[i])];
        r.inclusiveMs[name] += ms;
        r.selfMs[name] += ms - childMs[i];
    }
    return out;
}

} // namespace perfbench
